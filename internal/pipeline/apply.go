package pipeline

import (
	"sync"

	"gspc/internal/panics"
	"gspc/internal/rendercache"
)

// A render runs in two stages. The renderer rasterizes and records each
// render-cache request it makes in a batch, in program order; the apply
// stage replays the batches, in the same order, through the
// rendercache.Complex methods. The rasterizer never reads cache state,
// and each render cache sees its own requests in program order, so the
// caches emit exactly the accesses, in exactly the order, a direct call
// per request would: the split changes only which goroutine does the
// filtering.

// reqOp names the Complex method a request calls. The methods that take
// a write flag carry it in the top bit.
type reqOp uint8

const (
	opVertexIndex reqOp = iota
	opVertex
	opHiZ
	opZ
	opStencil
	opRT
	opTexture
	opDisplayColor
	opOther
	opFlush
	opInvalidateTextures

	opWrite reqOp = 0x80
)

// A render holds batchesInFlight batches of batchLen requests, 147 KB
// at 9 bytes per request: one filling, the rest queued or being
// applied. The queue lets the two stages run at uneven rates for a
// while (a Flush drains every writeback cache at once) without either
// waiting, and keeps a render's buffers inside 256 KB.
const (
	batchLen        = 4096
	batchesInFlight = 4
)

// batch is a run of requests in program order.
type batch struct {
	n    int
	addr [batchLen]uint64
	op   [batchLen]reqOp
}

// batches recycles batches across renders.
var batches = sync.Pool{New: func() any { return new(batch) }}

// apply issues the batch's requests to rc in order and empties it.
func (b *batch) apply(rc *rendercache.Complex) {
	for i, op := range b.op[:b.n] {
		a, w := b.addr[i], op&opWrite != 0
		switch op &^ opWrite {
		case opVertexIndex:
			rc.VertexIndex(a)
		case opVertex:
			rc.Vertex(a)
		case opHiZ:
			rc.HiZ(a, w)
		case opZ:
			rc.Z(a, w)
		case opStencil:
			rc.Stencil(a, w)
		case opRT:
			rc.RT(a, w)
		case opTexture:
			rc.Texture(a)
		case opDisplayColor:
			rc.DisplayColor(a, w)
		case opOther:
			rc.Other(a)
		case opFlush:
			rc.Flush()
		case opInvalidateTextures:
			rc.InvalidateTextures()
		}
	}
	b.n = 0
}

// applyStage applies batches to a Complex on a goroutine of its own.
// Batches circulate between two channels, each with room for all of
// them, so queueing a batch never blocks; the renderer waits only
// for an empty one.
type applyStage struct {
	rc   *rendercache.Complex
	full chan *batch   // renderer to stage, in program order
	free chan *batch   // stage to renderer, emptied
	done chan struct{} // closed when the stage's goroutine exits

	// failed and val record a panic that stopped the stage (a sink's,
	// or the cache model's); both are set before done closes.
	failed bool
	val    any
}

// stageStopped unwinds the renderer once the apply stage has stopped
// on a panic; RenderFrame replaces it with the stage's own value.
type stageStopped struct{}

func startApplyStage(rc *rendercache.Complex) *applyStage {
	s := &applyStage{
		rc:   rc,
		full: make(chan *batch, batchesInFlight),
		free: make(chan *batch, batchesInFlight),
		done: make(chan struct{}),
	}
	for i := 0; i < batchesInFlight; i++ {
		s.free <- batches.Get().(*batch)
	}
	go s.run()
	return s
}

func (s *applyStage) run() {
	var cur *batch
	defer func() {
		if cur != nil {
			// A panic stopped the stage mid-batch.
			s.failed, s.val = true, panics.Carry(recover())
			cur.n = 0
			s.free <- cur
		}
		close(s.done)
	}()
	for cur = range s.full {
		cur.apply(s.rc)
		s.free <- cur
	}
	cur = nil
}

// hand queues b for the stage and returns an empty batch. If the stage
// has stopped, it unwinds the renderer instead of rasterizing further.
func (s *applyStage) hand(b *batch) *batch {
	s.full <- b
	select {
	case <-s.done:
		panic(stageStopped{})
	default:
	}
	select {
	case b = <-s.free:
		return b
	case <-s.done:
		panic(stageStopped{})
	}
}

// stop closes the queue, waits for the stage to apply what it holds and
// exit, and recycles every batch, applied or left behind by a stopped
// stage.
func (s *applyStage) stop() {
	close(s.full)
	<-s.done
	close(s.free)
	for b := range s.free {
		batches.Put(b)
	}
	for b := range s.full {
		b.n = 0
		batches.Put(b)
	}
}
