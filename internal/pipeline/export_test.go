package pipeline

import "gspc/internal/rendercache"

// RenderDiscarding rasterizes f into an apply stage that drops every
// batch, and returns the number of batch entries recorded.
func RenderDiscarding(r *Renderer, f *Frame) (entries int) {
	hand := func(b *batch) *batch {
		entries += b.n
		b.n = 0
		return b
	}
	hand(r.render(f, new(batch), hand))
	return entries
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
		requests += b.n
		for _, r := range b.rep[:b.n] {
			requests += int(r)
		}
		entries += b.n
	}
	return requests, entries
}

// Apply issues the stream to rc, in order, and keeps it for reuse.
func (q Requests) Apply(rc *rendercache.Complex) {
	for _, b := range q {
		n := b.n
		b.apply(rc)
		b.n = n
	}
}
