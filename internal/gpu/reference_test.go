package gpu

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refHeap is the scheduler the typed event heap replaced: container/heap
// over the same events, with its own (t, seq) comparison.
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

// TestEventHeapAgainstContainerHeap drives the typed heap the way the
// event loop does — serve the root, then either retire it or reschedule
// it in place — next to container/heap doing Pop then Push, and demands
// the same event at the root at every step. Small random times make ties
// in t common, so the seq tie-break is exercised.
func TestEventHeapAgainstContainerHeap(t *testing.T) {
	f := func(start []uint8, steps []int8) bool {
		var h eventHeap
		var ref refHeap
		var seq int64
		for i, v := range start {
			e := event{t: int64(v), seq: seq, thread: int32(i)}
			seq++
			h = append(h, e)
			ref = append(ref, e)
		}
		h.init()
		heap.Init(&ref)
		for _, d := range steps {
			if len(h) == 0 {
				break
			}
			if h[0] != heap.Pop(&ref).(event) {
				return false
			}
			if d%3 == 0 {
				h.pop()
				continue
			}
			e := event{t: h[0].t + int64(d%16), seq: seq, thread: h[0].thread}
			seq++
			h[0] = e
			h.down(0)
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

// TestMSHRTableAgainstMap replays random get/put/sweep sequences on the
// MSHR table and on the plain map it replaced, and demands identical
// lookups after every operation and identical contents after every
// sweep. The key span and sweep rate vary per case, so runs range from
// heavy overwriting of a few blocks to table growth past its initial
// size; block 0 and block numbers near the top of the address space
// are both drawn.
func TestMSHRTableAgainstMap(t *testing.T) {
	f := func(seed int64, span uint16, sweepEvery uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMSHRTable()
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
		for i := 0; i < 20000; i++ {
			b := uint64(rng.Intn(1 + int(span)))
			if rng.Intn(16) == 0 {
				b = rng.Uint64() >> 6
			}
			if i%(1+int(sweepEvery)) == 0 {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
