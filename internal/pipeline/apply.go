package pipeline

import (
	"sync"

	"gspc/internal/panics"
	"gspc/internal/rendercache"
)

// A render runs in two stages. The renderer rasterizes and records its
// render-cache requests in a batch, in program order; the apply stage
// replays the batches, in the same order, through the
// rendercache.Complex methods. A request that repeats the block of the
// previous request through its port does not get an entry of its own:
// the renderer folds it into the entry of the run it repeats, as a
// count and a flag saying whether any repeat wrote (see Renderer.req).
// The rasterizer never reads cache state, and each render cache sees its
// own requests in program order, so the caches emit exactly the
// accesses, in exactly the order, a direct call per request would: the
// split changes only which goroutine does the filtering.

// reqOp names the Complex method a request calls: below opOther, the
// rendercache.Port it accesses. The ports' write flag is the top bit,
// and opRepeatWrite marks an entry one of whose repeats wrote.
type reqOp uint8

const (
	opVertexIndex  = reqOp(rendercache.VertexIndex)
	opVertex       = reqOp(rendercache.Vertex)
	opHiZ          = reqOp(rendercache.HiZ)
	opZ            = reqOp(rendercache.Z)
	opStencil      = reqOp(rendercache.Stencil)
	opRT           = reqOp(rendercache.RT)
	opTexture      = reqOp(rendercache.Texture)
	opDisplayColor = reqOp(rendercache.DisplayColor)
)

const (
	opOther reqOp = reqOp(rendercache.NumPorts) + iota
	opFlush
	opInvalidateTextures
)

const (
	opWrite       reqOp = 0x80
	opRepeatWrite       = opWrite >> 1 // a repeat's write flag, shifted
)

// A render holds batchesInFlight batches of batchLen entries, 279 KB at
// 17 bytes per entry: one filling, the rest queued or being applied.
// The queue lets the two stages run at uneven rates for a while (a
// Flush drains every writeback cache at once) without either waiting.
const (
	batchLen        = 4096
	batchesInFlight = 4
)

// batch is a run of entries in program order. Entry i is a request and,
// for a port, rep[i] repeats of its block that followed it; the count is
// wide enough that no run can overflow it.
type batch struct {
	n    int
	addr [batchLen]uint64
	rep  [batchLen]int64
	op   [batchLen]reqOp
}

// add records one request as a new entry, in space Renderer.room made.
func (b *batch) add(addr uint64, op reqOp) {
	b.addr[b.n], b.op[b.n] = addr, op
	b.n++
}

// batches recycles batches across renders.
var batches = sync.Pool{New: func() any { return new(batch) }}

// apply issues the batch's entries to rc in order and empties it.
func (b *batch) apply(rc *rendercache.Complex) {
	for i, op := range b.op[:b.n] {
		a := b.addr[i]
		switch p := op &^ (opWrite | opRepeatWrite); p {
		case opOther:
			rc.Other(a)
		case opFlush:
			rc.Flush()
		case opInvalidateTextures:
			rc.InvalidateTextures()
		default:
			rc.Access(rendercache.Port(p), a, op&opWrite != 0, b.rep[i], op&opRepeatWrite != 0)
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
