package cachesim

import (
	"reflect"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
)

// bypassingPolicy is fifoPolicy that declines every third block number
// a victim (Victim returns -1), exercising policy bypass.
type bypassingPolicy struct{ fifoPolicy }

func (p *bypassingPolicy) Victim(set int, a stream.Access) int {
	if (a.Addr>>6)%3 == 0 {
		return -1
	}
	return p.fifoPolicy.Victim(set, a)
}

// randomAccess maps quick-generated raw values to an access over a
// small block pool (so sets fill, hit and evict) with a random stream
// kind, write flag and intra-block offset.
func randomAccess(ad uint16, meta uint8) stream.Access {
	return stream.Access{
		Addr:  uint64(ad%97)<<6 | uint64(ad>>10),
		Kind:  stream.Kind(meta % uint8(stream.NumKinds)),
		Write: meta&0x80 != 0,
	}
}

// propertyCache builds a 16-set, 4-way cache with a bypassing policy,
// optionally set-sampled at 1 in 2.
func propertyCache(sampled bool) *Cache {
	geom := Geometry{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64}
	if sampled {
		return NewSampled(geom, &bypassingPolicy{}, SetSample{Ratio: 2, Seed: 3})
	}
	return New(geom, &bypassingPolicy{})
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

// TestObserversNeverChangeOutcomes replays random traces through two
// identical caches, one with a recording observer and one without:
// events are built only when an observer is attached, and attaching
// one must not move a counter, a downstream emission or a block.
func TestObserversNeverChangeOutcomes(t *testing.T) {
	f := func(addrs []uint16, metas []uint8, bypass uint8, noFetch, sampled bool) bool {
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
		var events []Event
		caches[1].AddObserver(ObserverFunc(func(ev Event) { events = append(events, ev) }))
		for i, ad := range addrs {
			var m uint8
			if i < len(metas) {
				m = metas[i]
			}
			a := randomAccess(ad, m)
			if caches[0].Access(a) != caches[1].Access(a) {
				return false
			}
		}
		for _, c := range caches {
			c.DrainWritebacks()
		}
		if len(addrs) > 0 && caches[1].Stats.Accesses > 0 && len(events) == 0 {
			return false // the observer must actually have been fed
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
// full and a set-sampled cache: after every access of a random trace
// (with stream and policy bypasses), after DrainWritebacks, and after
// Reset followed by more traffic.
func TestValidWaysFormPrefix(t *testing.T) {
	f := func(addrs []uint16, metas []uint8, bypass uint8, sampled bool) bool {
		c := propertyCache(sampled)
		c.SetBypass(stream.Kind(bypass%uint8(stream.NumKinds)), true)
		c.Downstream = stream.SinkFunc(func(stream.Access) {})
		run := func() bool {
			for i, ad := range addrs {
				var m uint8
				if i < len(metas) {
					m = metas[i]
				}
				c.Access(randomAccess(ad, m))
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
