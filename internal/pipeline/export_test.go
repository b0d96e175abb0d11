package pipeline

import "gspc/internal/rendercache"

// RenderDiscarding rasterizes f into an apply stage that drops every
// batch, and returns the number of requests made and of the batch
// entries that held them.
func RenderDiscarding(r *Renderer, f *Frame) (requests, entries int) {
	hand := func(b *batch) *batch {
		requests += b.requests()
		entries += b.n
		b.n = 0
		return b
	}
	hand(r.render(f, new(batch), hand))
	return requests, entries
}

// requests returns the number of requests the batch's entries hold.
func (b *batch) requests() int {
	n := b.n
	for _, r := range b.rep[:b.n] {
		n += int(r)
	}
	return n
}

// Requests is a recorded render-cache request stream.
type Requests []*batch

// RecordRequests renders f for a complex built from cfg and returns its
// request stream, unapplied.
func RecordRequests(f *Frame, cfg rendercache.Config) Requests {
	var q Requests
	hand := func(b *batch) *batch {
		q = append(q, b)
		return new(batch)
	}
	hand(NewRenderer(rendercache.New(cfg, nil)).render(f, new(batch), hand))
	return q
}

// Len returns the number of requests in the stream and of the entries
// that hold them.
func (q Requests) Len() (requests, entries int) {
	for _, b := range q {
		requests += b.requests()
		entries += b.n
	}
	return requests, entries
}

// Entries returns the number of the stream's entries that access port p.
func (q Requests) Entries(p rendercache.Port) (n int) {
	for _, b := range q {
		for _, op := range b.op[:b.n] {
			if op&^(opWrite|opRepeatWrite) == reqOp(p) {
				n++
			}
		}
	}
	return n
}

// Apply issues the stream to rc, in order, and keeps it for reuse.
func (q Requests) Apply(rc *rendercache.Complex) {
	for _, b := range q {
		n := b.n
		b.apply(rc)
		b.n = n
	}
}
