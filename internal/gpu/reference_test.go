package gpu

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refHeap is the event loop's first scheduler: container/heap over the
// same events, with its own (t, seq) comparison.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEventHeapAgainstContainerHeap drives the typed heap that holds
// the calendar's far events — serve the root, then either retire it or
// push its thread's next event — next to container/heap doing Pop then
// Push, and demands the same event at the root at every step. Small
// random times make ties in t common, so the seq tie-break is
// exercised.
func TestEventHeapAgainstContainerHeap(t *testing.T) {
	f := func(start []uint8, steps []int8) bool {
		var h eventHeap
		var ref refHeap
		var seq int64
		for i, v := range start {
			e := event{t: int64(v), seq: seq, thread: int32(i)}
			seq++
			h.push(e)
			heap.Push(&ref, e)
		}
		for _, d := range steps {
			if len(h) == 0 {
				break
			}
			root := h[0]
			if root != heap.Pop(&ref).(event) {
				return false
			}
			h.pop()
			if d%3 == 0 {
				continue
			}
			e := event{t: root.t + int64(d%16), seq: seq, thread: root.thread}
			seq++
			h.push(e)
			heap.Push(&ref, e)
		}
		for len(h) > 0 {
			if h[0] != heap.Pop(&ref).(event) {
				return false
			}
			h.pop()
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// calHorizon is the span of the calendar's ring in cycles.
const calHorizon = calBuckets << calShift

// wakeDelta draws how far after the served event a thread's next event
// lands: mostly the loop's own mix of near deltas, with ties in t, both
// sides of the ring's horizon, wake-ups many horizons out, and — beyond
// anything the loop does — events earlier than the one just served.
func wakeDelta(rng *rand.Rand) int64 {
	switch r := rng.Intn(16); {
	case r < 4:
		return rng.Int63n(4) // ties, often in the same bucket
	case r < 9:
		return rng.Int63n(4000)
	case r < 12:
		return calHorizon - 2<<calShift + rng.Int63n(4<<calShift)
	case r < 15:
		return calHorizon*(1+rng.Int63n(40)) + rng.Int63n(calHorizon)
	default:
		return -1 - rng.Int63n(64)
	}
}

// TestCalendarAgainstContainerHeap drives the calendar the way the
// event loop does — start every thread at t = 0 in thread order, serve
// the earliest event, then reschedule that thread or retire it — next to
// container/heap over the same events, and demands the same (t, seq,
// thread) at every step. Half the cases instead start from pushes at
// scattered times, some beyond the ring. wakeDelta supplies tied times,
// wake-ups on both sides of the horizon and far beyond it, and earlier
// times the loop never schedules, so the ring, the far heap and their
// interleaving are all checked.
func TestCalendarAgainstContainerHeap(t *testing.T) {
	f := func(seed int64, threads uint8, scattered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(threads)%64
		q := newCalendar(n)
		var ref refHeap
		if scattered {
			for i := 0; i < n; i++ {
				e := event{t: rng.Int63n(3 * calHorizon), seq: int64(i), thread: int32(i)}
				q.push(e)
				heap.Push(&ref, e)
			}
		} else {
			q.start(n)
			for i := 0; i < n; i++ {
				heap.Push(&ref, event{seq: int64(i), thread: int32(i)})
			}
		}
		seq := int64(n)
		for step := 0; step < 4000; step++ {
			ev, ok := q.pop()
			if ok != (ref.Len() > 0) {
				return false
			}
			if !ok {
				return true
			}
			if ev != heap.Pop(&ref).(event) {
				return false
			}
			if rng.Intn(64) == 0 {
				continue // the thread retires
			}
			e := event{t: ev.t + wakeDelta(rng), seq: seq, thread: ev.thread}
			seq++
			q.push(e)
			heap.Push(&ref, e)
		}
		for ref.Len() > 0 {
			if ev, ok := q.pop(); !ok || ev != heap.Pop(&ref).(event) {
				return false
			}
		}
		_, ok := q.pop()
		return !ok && q.n == 0 && q.summary == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMSHRTableAgainstMap replays random get/put/sweep sequences on the
// MSHR table and on the plain map it replaced, and demands identical
// lookups after every operation and identical contents after every
// sweep. The key span and sweep rate vary per sequence, so runs range
// from heavy overwriting of a few blocks to table growth past its
// initial size; block 0 and block numbers near the top of the address
// space are both drawn. Each case runs two sequences on one table and
// resets it between them, as a simulation does before recycling it, so
// the second starts on emptied and often grown arrays.
func TestMSHRTableAgainstMap(t *testing.T) {
	f := func(seed int64, span, sweepEvery uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMSHRTable()
		if !mshrAgreesWithMap(m, rng, int(span), int(sweepEvery)) {
			return false
		}
		m.reset()
		return mshrAgreesWithMap(m, rng, rng.Intn(1<<16), rng.Intn(1<<16))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// mshrAgreesWithMap drives m, which must be empty, and a new map through
// one random sequence and reports whether they agreed throughout.
func mshrAgreesWithMap(m *mshrTable, rng *rand.Rand, span, sweepEvery int) bool {
	ref := map[uint64]int64{}
	same := func() bool {
		if m.n != len(ref) {
			return false
		}
		for k, v := range ref {
			if d, ok := m.get(k); !ok || d != v {
				return false
			}
		}
		return true
	}
	if !same() {
		return false
	}
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(1 + span))
		if rng.Intn(16) == 0 {
			b = rng.Uint64() >> 6
		}
		if i%(1+sweepEvery) == 0 {
			now := rng.Int63n(1000)
			m.sweep(now)
			for k, d := range ref {
				if d <= now {
					delete(ref, k)
				}
			}
			if !same() {
				return false
			}
		}
		d, ok := m.get(b)
		rd, rok := ref[b]
		if ok != rok || ok && d != rd {
			return false
		}
		if rng.Intn(2) == 0 {
			done := rng.Int63n(1000)
			m.put(b, done)
			ref[b] = done
		}
	}
	return same()
}
