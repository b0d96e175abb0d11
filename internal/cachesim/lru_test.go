package cachesim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

// lruChain is a quick-generated chain of one to three caches, each level
// sending its misses and writebacks to the next and the last to a
// recorder, and a run of operations on it.
type lruChain struct {
	Levels []lruLevel
	Ops    []lruOp
}

type lruLevel struct {
	Geom           cachesim.Geometry
	NoFetchOnWrite bool
	WritebackKind  stream.Kind
}

// lruOp is a run of accesses to the first level: one access, then
// repeats of its block with its kind, each with its own write flag and
// byte offset. With Flush set it is instead a drain of every level from
// the first down, and with Reset set a reset of level Level.
type lruOp struct {
	Run          []stream.Access
	Flush, Reset bool
	Level        int
}

// randomGeometry draws one set, a power-of-two set count or another
// count, with 1-128 ways (half the time at most 8) and a block size of
// 2-128 bytes.
func randomGeometry(r *rand.Rand) cachesim.Geometry {
	sets := 1
	switch r.Intn(3) {
	case 1:
		sets = 2 << r.Intn(6)
	case 2:
		for sets&(sets-1) == 0 {
			sets = 3 + r.Intn(60)
		}
	}
	ways := 1 + r.Intn(128)
	if r.Intn(2) == 0 {
		ways = 1 + r.Intn(8)
	}
	block := 2 << r.Intn(7)
	return cachesim.Geometry{SizeBytes: sets * ways * block, Ways: ways, BlockSize: block}
}

// Generate implements quick.Generator. Accesses come in runs of 1-8 to
// one block with one kind, over a pool of blocks strided from a random
// base; a stride of the first level's set count crowds the whole pool
// into one set. About one operation in 150 is a flush and one in 300 a
// reset, and a reset or a flush may split a run in two.
func (lruChain) Generate(r *rand.Rand, size int) reflect.Value {
	var c lruChain
	for range 1 + r.Intn(3) {
		c.Levels = append(c.Levels, lruLevel{
			Geom:           randomGeometry(r),
			NoFetchOnWrite: r.Intn(2) == 0,
			WritebackKind:  stream.Kind(r.Intn(int(stream.NumKinds))),
		})
	}
	top := c.Levels[0].Geom
	strides := []uint64{1, uint64(1 + r.Intn(16)), uint64(top.Sets())}
	stride := strides[r.Intn(len(strides))]
	pool := 1 + r.Intn(3*top.Ways*min(top.Sets(), 4))
	base := r.Uint64() >> 16
	for range r.Intn(600) {
		bn := base + uint64(r.Intn(pool))*stride
		kind := stream.Kind(r.Intn(int(stream.NumKinds)))
		var run []stream.Access
		split := func(op lruOp) {
			if len(run) > 0 {
				c.Ops = append(c.Ops, lruOp{Run: run})
			}
			c.Ops = append(c.Ops, op)
			run = nil
		}
		for range 1 + r.Intn(8) {
			switch r.Intn(300) {
			case 0, 1:
				split(lruOp{Flush: true})
			case 2:
				split(lruOp{Reset: true, Level: r.Intn(len(c.Levels))})
			}
			run = append(run, stream.Access{
				Addr:  bn*uint64(top.BlockSize) + uint64(r.Intn(top.BlockSize)),
				Kind:  kind,
				Write: r.Intn(2) == 0,
			})
		}
		c.Ops = append(c.Ops, lruOp{Run: run})
	}
	return reflect.ValueOf(c)
}

// TestLRUCacheMatchesCacheWithLRU runs each generated chain twice, once
// built from LRUCache levels and once from Cache levels with policy.LRU,
// each level the Downstream of the one before. The LRUCache chain takes
// each run in one AccessRun call, the Cache chain as single accesses.
// The test demands the same hit or miss from the first level for a
// run's first access, a hit for every repeat, the same Stats at every
// level after every operation, and the same accesses out of the last
// level in the same order.
func TestLRUCacheMatchesCacheWithLRU(t *testing.T) {
	f := func(ch lruChain) bool {
		var got, want []stream.Access
		lru := make([]*cachesim.LRUCache, len(ch.Levels))
		ref := make([]*cachesim.Cache, len(ch.Levels))
		for i := len(ch.Levels) - 1; i >= 0; i-- {
			l := ch.Levels[i]
			lru[i] = cachesim.NewLRUCache(l.Geom)
			ref[i] = cachesim.New(l.Geom, policy.NewLRU())
			lru[i].NoFetchOnWrite, ref[i].NoFetchOnWrite = l.NoFetchOnWrite, l.NoFetchOnWrite
			lru[i].WritebackKind, ref[i].WritebackKind = l.WritebackKind, l.WritebackKind
			if i == len(ch.Levels)-1 {
				lru[i].Downstream = stream.SinkFunc(func(a stream.Access) { got = append(got, a) })
				ref[i].Downstream = stream.SinkFunc(func(a stream.Access) { want = append(want, a) })
			} else {
				lru[i].Downstream, ref[i].Downstream = lru[i+1], ref[i+1]
			}
		}
		for _, op := range ch.Ops {
			switch {
			case op.Flush:
				for i := range lru {
					lru[i].Flush()
					ref[i].DrainWritebacks()
				}
			case op.Reset:
				lru[op.Level].Reset()
				ref[op.Level].Reset()
			default:
				wrote := false
				for _, a := range op.Run[1:] {
					wrote = wrote || a.Write
				}
				if lru[0].AccessRun(op.Run[0], int64(len(op.Run)-1), wrote) != ref[0].Access(op.Run[0]) {
					return false
				}
				for _, a := range op.Run[1:] {
					if !ref[0].Access(a) {
						return false
					}
				}
			}
			for i := range lru {
				if lru[i].Stats != ref[i].Stats {
					return false
				}
			}
			if len(got) != len(want) {
				return false
			}
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
