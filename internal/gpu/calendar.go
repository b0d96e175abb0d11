package gpu

import "math/bits"

// event is one thread's next wake-up. seq is unique, so (t, seq)
// orders events totally: the order events are served in does not depend
// on how the queue stores them, and ties in t go to the earlier-scheduled
// thread.
type event struct {
	t      int64
	seq    int64
	thread int32
}

func (e event) before(o event) bool {
	return e.t < o.t || e.t == o.t && e.seq < o.seq
}

// The calendar's ring has calBuckets buckets of 1<<calShift cycles each,
// so it holds the wake-ups that fall within calBuckets<<calShift =
// 32,768 cycles of the cursor. Baseline wake-ups are a few thousand
// cycles out; DRAM queueing pushes a few beyond the ring (138 of the
// 1.5 million in the timing pins).
const (
	calShift   = 3
	calBuckets = 1 << 12
	calMask    = calBuckets - 1
)

// The summary word has one bit per bitmap word, which caps the ring at
// 64 words of 64 buckets; a larger ring fails to compile here.
const _ uint = 64*64 - calBuckets

// calNode is a thread's pending wake-up while it waits in the ring.
type calNode struct {
	t    int64
	seq  int64
	next int32 // thread id + 1 of the next node in the bucket; 0 ends it
}

// calendar is the event loop's scheduler: a calendar queue (Brown,
// CACM 1988) that serves events in exactly (t, seq) order. Each thread
// has at most one pending event, so the events are intrusive list nodes
// indexed by thread, and scheduling allocates nothing but the far heap,
// once, sized for every thread.
//
// An event whose bucket number t>>calShift lies in [cur, cur+calBuckets)
// waits in the ring, in bucket t>>calShift mod calBuckets, where each
// bucket keeps its list in (t, seq) order; any other event waits in the
// far heap. Serving takes the earlier of the first event of the first
// non-empty bucket at or after cur, found through a two-level bitmap,
// and the root of the far heap, then advances cur to the served event's
// bucket number if that is later. Every event left is no earlier than
// the one served, so the ring's events stay inside the window, each
// bucket holds one window position's events, and the first non-empty
// bucket from cur holds the ring's earliest event: the order is exact
// for any sequence of pushes. The event loop only ever reschedules a
// thread later than the event it serves (resume > ev.t), so in practice
// cur only moves forward and the far heap holds only wake-ups beyond the
// window, which it keeps until they are the earliest event of all.
type calendar struct {
	nodes   []calNode
	head    [calBuckets]int32 // thread id + 1 of the bucket's first node; 0 if empty
	words   [calBuckets / 64]uint64
	summary uint64 // bit w set iff words[w] != 0
	cur     int64  // bucket number of the latest event served
	n       int    // events in the ring
	far     eventHeap
}

func newCalendar(threads int) *calendar {
	return &calendar{nodes: make([]calNode, threads)}
}

// start schedules threads 0..n-1 at t = 0 with seq 0..n-1: one bucket,
// already in (t, seq) order, linked in O(n).
func (q *calendar) start(n int) {
	if n == 0 {
		return
	}
	for i := range q.nodes[:n] {
		q.nodes[i] = calNode{seq: int64(i), next: int32(i + 2)}
	}
	q.nodes[n-1].next = 0
	q.head[0] = 1
	q.mark(0)
	q.n = n
}

// push schedules e; e.thread must have no other pending event.
func (q *calendar) push(e event) {
	v := e.t >> calShift
	if uint64(v-q.cur) >= calBuckets {
		if q.far == nil {
			// It never holds more than one event per thread.
			q.far = make(eventHeap, 0, len(q.nodes))
		}
		q.far.push(e)
		return
	}
	b := int(v & calMask)
	link := &q.head[b]
	if *link == 0 {
		q.mark(b)
	}
	// Walk past the nodes served before e. The loop's new events carry
	// the largest seq yet, so this stops at the first later t.
	for *link != 0 {
		o := &q.nodes[*link-1]
		if e.t < o.t || e.t == o.t && e.seq < o.seq {
			break
		}
		link = &o.next
	}
	q.nodes[e.thread] = calNode{t: e.t, seq: e.seq, next: *link}
	*link = e.thread + 1
	q.n++
}

// pop removes and returns the earliest event, or reports false when
// none is pending.
func (q *calendar) pop() (event, bool) {
	if q.n == 0 {
		if len(q.far) == 0 {
			return event{}, false
		}
		return q.popFar(), true
	}
	b := q.first()
	id := q.head[b] - 1
	nd := &q.nodes[id]
	e := event{t: nd.t, seq: nd.seq, thread: id}
	if len(q.far) > 0 && q.far[0].before(e) {
		return q.popFar(), true
	}
	q.head[b] = nd.next
	if nd.next == 0 {
		q.unmark(b)
	}
	q.n--
	q.advance(e.t)
	return e, true
}

func (q *calendar) popFar() event {
	e := q.far[0]
	q.far.pop()
	q.advance(e.t)
	return e
}

func (q *calendar) advance(t int64) {
	if v := t >> calShift; v > q.cur {
		q.cur = v
	}
}

// first returns the first non-empty bucket at or after the cursor's,
// in ring order. The ring must hold an event.
func (q *calendar) first() int {
	b := int(q.cur & calMask)
	if q.head[b] != 0 {
		return b
	}
	w := b >> 6
	if m := q.words[w] >> uint(b&63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	s := q.summary &^ (uint64(2)<<uint(w) - 1) // the words after w
	if s == 0 {
		s = q.summary // wrap around to the ring's start
	}
	w = bits.TrailingZeros64(s)
	return w<<6 + bits.TrailingZeros64(q.words[w])
}

func (q *calendar) mark(b int) {
	q.words[b>>6] |= 1 << uint(b&63)
	q.summary |= 1 << uint(b>>6)
}

func (q *calendar) unmark(b int) {
	w := b >> 6
	q.words[w] &^= 1 << uint(b&63)
	if q.words[w] == 0 {
		q.summary &^= 1 << uint(w)
	}
}

// eventHeap is a binary min-heap of events ordered by (t, seq). It holds
// events by value, so scheduling allocates nothing once it has room.
type eventHeap []event

// push adds e.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes the root.
func (h *eventHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
}

// down restores the heap order after h[i] moved later.
func (h eventHeap) down(i int) {
	e := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
