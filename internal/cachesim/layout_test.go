package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
)

// bypassingPolicy wraps a policy and declines every third block number
// a victim (Victim returns -1), exercising policy bypass.
type bypassingPolicy struct{ Policy }

func (p *bypassingPolicy) Victim(set int, a stream.Access) int {
	if (a.Addr>>6)%3 == 0 {
		return -1
	}
	return p.Policy.Victim(set, a)
}

// testTrace is a quick-generated access trace over a pool of 2-97
// blocks, evenly strided from a random base (so sets fill, hit and
// evict, some traces crowd into a few sets, and block numbers span 57
// bits), each access with a random stream kind, write flag and
// intra-block offset. Half the traces are repeat-heavy: runs of 1-8
// accesses to one block, each access with its own kind, write flag and
// offset — the shape render caches see. The caches under test are Reset
// before access ResetAt; half the traces have no Reset.
type testTrace struct {
	Accs    []stream.Access
	ResetAt int
}

// Generate implements quick.Generator.
func (testTrace) Generate(r *rand.Rand, size int) reflect.Value {
	base, pool, stride := r.Uint64()>>7, 2+r.Intn(96), uint64(1+r.Intn(16))
	return reflect.ValueOf(genRuns(r, size, func() uint64 { return base + uint64(r.Intn(pool))*stride }))
}

// genRuns draws a testTrace, plain or repeat-heavy as testTrace
// describes, whose every run accesses a block drawn by block.
func genRuns(r *rand.Rand, size int, block func() uint64) testTrace {
	runs, maxRun := r.Intn(size+1), 1
	if r.Intn(2) == 0 {
		maxRun = 8
	}
	var tr testTrace
	for range runs {
		bn := block()
		for range 1 + r.Intn(maxRun) {
			tr.Accs = append(tr.Accs, stream.Access{
				Addr:  bn<<6 | uint64(r.Intn(64)),
				Kind:  stream.Kind(r.Intn(int(stream.NumKinds))),
				Write: r.Intn(2) == 0,
			})
		}
	}
	tr.ResetAt = r.Intn(2*len(tr.Accs) + 1)
	return tr
}

// propertyCache builds a 16-set, 4-way cache with a bypassing policy,
// optionally set-sampled at 1 in 2.
func propertyCache(sampled bool) *Cache {
	geom := Geometry{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64}
	if sampled {
		return NewSampled(geom, &bypassingPolicy{&fifoPolicy{}}, SetSample{Ratio: 2, Seed: 3})
	}
	return New(geom, &bypassingPolicy{&fifoPolicy{}})
}

// blockState is one way's BlockAt result.
type blockState struct {
	tag          uint64
	valid, dirty bool
}

// blocks snapshots BlockAt for every simulated way.
func blocks(c *Cache) []blockState {
	var out []blockState
	for s := 0; s < c.Sets(); s++ {
		for w := 0; w < c.Ways(); w++ {
			tag, valid, dirty := c.BlockAt(s, w)
			out = append(out, blockState{tag, valid, dirty})
		}
	}
	return out
}

// TestObserversNeverChangeOutcomes replays random traces, plain and
// repeat-heavy, through two identical caches, one with a recording
// observer and one without: events are built only when an observer is
// attached, and attaching one must not move a counter, a downstream
// emission or a block. The observer must see one event per hit, fill,
// eviction and bypass since the last Reset.
func TestObserversNeverChangeOutcomes(t *testing.T) {
	f := func(tr testTrace, bypass uint8, noFetch, sampled bool) bool {
		var emitted [2][]stream.Access
		var caches [2]*Cache
		for i := range caches {
			c := propertyCache(sampled)
			c.SetBypass(stream.Kind(bypass%uint8(stream.NumKinds)), true)
			c.NoFetchOnWrite = noFetch
			c.WritebackKind = stream.RT
			c.Downstream = stream.SinkFunc(func(a stream.Access) { emitted[i] = append(emitted[i], a) })
			caches[i] = c
		}
		var events [EvBypass + 1]int64
		caches[1].AddObserver(ObserverFunc(func(ev Event) { events[ev.Type]++ }))
		for i, a := range tr.Accs {
			if i == tr.ResetAt {
				caches[0].Reset()
				caches[1].Reset()
				events = [EvBypass + 1]int64{}
			}
			if caches[0].Access(a) != caches[1].Access(a) {
				return false
			}
		}
		for _, c := range caches {
			c.DrainWritebacks()
		}
		s := caches[1].Stats
		if events != [...]int64{EvHit: s.Hits, EvFill: s.Misses - s.Bypasses, EvEvict: s.Evictions, EvBypass: s.Bypasses} {
			return false
		}
		return caches[0].Stats == caches[1].Stats &&
			reflect.DeepEqual(emitted[0], emitted[1]) &&
			reflect.DeepEqual(blocks(caches[0]), blocks(caches[1]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// validPrefix reports whether the valid ways of every set form a prefix
// of it — the invariant the lookup's early exit at the first invalid
// way depends on.
func validPrefix(c *Cache) bool {
	for s := 0; s < c.Sets(); s++ {
		seenInvalid := false
		for w := 0; w < c.Ways(); w++ {
			_, valid, _ := c.BlockAt(s, w)
			if valid && seenInvalid {
				return false
			}
			seenInvalid = seenInvalid || !valid
		}
	}
	return true
}

// TestValidWaysFormPrefix checks the packed tag layout's invariant on a
// full and a set-sampled cache: after every access of a random trace,
// plain or repeat-heavy (with stream and policy bypasses and the
// trace's Reset), after DrainWritebacks, and after Reset followed by
// more traffic.
func TestValidWaysFormPrefix(t *testing.T) {
	f := func(tr testTrace, bypass uint8, sampled bool) bool {
		c := propertyCache(sampled)
		c.SetBypass(stream.Kind(bypass%uint8(stream.NumKinds)), true)
		c.Downstream = stream.SinkFunc(func(stream.Access) {})
		run := func() bool {
			for i, a := range tr.Accs {
				if i == tr.ResetAt {
					c.Reset()
				}
				c.Access(a)
				if !validPrefix(c) {
					return false
				}
			}
			return true
		}
		if !run() {
			return false
		}
		c.DrainWritebacks()
		if !validPrefix(c) {
			return false
		}
		c.Reset()
		if c.Occupancy() != 0 || !validPrefix(c) {
			return false
		}
		return run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
