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

// pairCase is a quick-generated LRUCache with warm-up traffic, two
// distinct blocks A and B, half the time in one set, each accessed
// twice, and a suffix of further accesses.
type pairCase struct {
	Level        lruLevel
	Warm, Suffix []stream.Access
	// Pair is A, B, A, B: the bilinear footprint whose two rows span the
	// same two blocks, in raster order.
	Pair [4]stream.Access
}

// Generate implements quick.Generator. Geometries have at least two
// ways, and traffic comes from a pool of up to twice as many blocks as
// the cache holds, so warm-up fills sets and the pair and the suffix
// evict.
func (pairCase) Generate(r *rand.Rand, size int) reflect.Value {
	var c pairCase
	for c.Level.Geom.Ways < 2 {
		c.Level.Geom = randomGeometry(r)
	}
	c.Level.NoFetchOnWrite = r.Intn(2) == 0
	c.Level.WritebackKind = stream.Kind(r.Intn(int(stream.NumKinds)))
	g := c.Level.Geom
	pool := uint64(1 + r.Intn(2*g.Ways*g.Sets()))
	base := r.Uint64() >> 16
	access := func(bn uint64) stream.Access {
		return stream.Access{
			Addr:  bn*uint64(g.BlockSize) + uint64(r.Intn(g.BlockSize)),
			Kind:  stream.Kind(r.Intn(int(stream.NumKinds))),
			Write: r.Intn(2) == 0,
		}
	}
	for range r.Intn(4 * g.Ways * g.Sets()) {
		c.Warm = append(c.Warm, access(base+uint64(r.Int63n(int64(pool)))))
	}
	a := base + uint64(r.Int63n(int64(pool)))
	b := a + uint64(g.Sets())*uint64(1+r.Intn(4))
	if r.Intn(2) == 0 {
		b = a + 1 + uint64(r.Intn(3*g.Sets()))
	}
	kind := stream.Kind(r.Intn(int(stream.NumKinds)))
	for i, bn := range []uint64{a, b, a, b} {
		c.Pair[i] = access(bn)
		c.Pair[i].Kind = kind
	}
	for range r.Intn(200) {
		c.Suffix = append(c.Suffix, access(base+uint64(r.Int63n(int64(pool)))))
	}
	return reflect.ValueOf(c)
}

// runPair gives an LRUCache built from c the warm-up, the pair, either
// in raster order as single accesses or as the runs A A and B B, the
// suffix and a flush, and returns its hit or miss on each access, its
// Stats and every access it sent downstream.
func runPair(c pairCase, runs bool) (hits []bool, st cachesim.Stats, out []stream.Access) {
	cache := cachesim.NewLRUCache(c.Level.Geom)
	cache.NoFetchOnWrite, cache.WritebackKind = c.Level.NoFetchOnWrite, c.Level.WritebackKind
	cache.Downstream = stream.SinkFunc(func(a stream.Access) { out = append(out, a) })
	for _, a := range c.Warm {
		hits = append(hits, cache.Access(a))
	}
	p := c.Pair
	if runs {
		// Outcomes in raster order: a run's repeat always hits.
		ha := cache.AccessRun(p[0], 1, p[2].Write)
		hb := cache.AccessRun(p[1], 1, p[3].Write)
		hits = append(hits, ha, hb, true, true)
	} else {
		for _, a := range p {
			hits = append(hits, cache.Access(a))
		}
	}
	for _, a := range c.Suffix {
		hits = append(hits, cache.Access(a))
	}
	cache.Flush()
	return hits, cache.Stats, out
}

// TestLRUCachePairOrder: in an LRU cache of at least two ways, A B A B
// made one by one and the runs A A then B B leave the same outcomes,
// Stats and downstream accesses, through the pair and through any
// traffic after it, flush included: the rule by which the renderer
// issues a bilinear footprint whose rows span the same two blocks as
// A A B B. A one-way, one-set cache tells the two orders apart, so the
// rule needs the second way.
func TestLRUCachePairOrder(t *testing.T) {
	f := func(c pairCase) bool {
		hits, st, out := runPair(c, false)
		runHits, runSt, runOut := runPair(c, true)
		return slices.Equal(hits, runHits) && st == runSt && slices.Equal(out, runOut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	a, b := stream.Access{Addr: 0}, stream.Access{Addr: 64}
	oneWay := pairCase{
		Level: lruLevel{Geom: cachesim.Geometry{SizeBytes: 64, Ways: 1, BlockSize: 64}},
		Pair:  [4]stream.Access{a, b, a, b},
	}
	if _, st, _ := runPair(oneWay, false); st.Misses != 4 {
		t.Errorf("one way, A B A B: %d misses, want 4", st.Misses)
	}
	if _, st, _ := runPair(oneWay, true); st.Misses != 2 {
		t.Errorf("one way, A A B B: %d misses, want 2", st.Misses)
	}
}
