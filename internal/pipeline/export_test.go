package pipeline

import "gspc/internal/rendercache"

// RenderDiscarding rasterizes f into an apply stage that drops every
// batch, and returns the number of render-cache requests made.
func RenderDiscarding(r *Renderer, f *Frame) (requests int) {
	hand := func(b *batch) *batch {
		requests += b.n
		b.n = 0
		return b
	}
	hand(r.render(f, new(batch), hand))
	return requests
}

// Requests is a recorded render-cache request stream.
type Requests []*batch

// RecordRequests renders f and returns its request stream, unapplied.
func RecordRequests(f *Frame) Requests {
	var q Requests
	hand := func(b *batch) *batch {
		q = append(q, b)
		return new(batch)
	}
	hand(NewRenderer(nil).render(f, new(batch), hand))
	return q
}

// Len returns the number of requests in the stream.
func (q Requests) Len() int {
	n := 0
	for _, b := range q {
		n += b.n
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
