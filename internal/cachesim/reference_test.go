package cachesim

import (
	"testing"
	"testing/quick"

	"gspc/internal/stream"
)

// refCache is an independent, deliberately naive reference model of a
// set-associative LRU cache: per-set slices searched linearly, recency
// maintained by reordering. The production Cache with an LRU policy must
// agree with it access-for-access — the analogue of the paper validating
// its offline cache model against the detailed simulator.
type refCache struct {
	sets       int
	ways       int
	blockShift uint
	lines      [][]refLine // per set, MRU first
}

// refLine is one resident block. way is the physical way it occupies:
// fills of a non-full set take the next way in order, and a fill that
// evicts takes the victim's way.
type refLine struct {
	tag   uint64
	dirty bool
	way   int
}

func newRefCache(sets, ways int, blockShift uint) *refCache {
	return &refCache{sets: sets, ways: ways, blockShift: blockShift, lines: make([][]refLine, sets)}
}

// access returns (hit, evictedDirtyTag, hadDirtyEviction).
func (r *refCache) access(a stream.Access) (bool, uint64, bool) {
	bn := a.Addr >> r.blockShift
	set := int(bn % uint64(r.sets))
	ls := r.lines[set]
	for i := range ls {
		if ls[i].tag == bn {
			line := ls[i]
			if a.Write {
				line.dirty = true
			}
			copy(ls[1:i+1], ls[:i])
			ls[0] = line
			return true, 0, false
		}
	}
	// Miss: insert at MRU, evict LRU if full.
	var evTag uint64
	var evDirty bool
	way := len(ls)
	if len(ls) == r.ways {
		ev := ls[len(ls)-1]
		evTag, evDirty, way = ev.tag, ev.dirty, ev.way
		ls = ls[:len(ls)-1]
	}
	ls = append([]refLine{{tag: bn, dirty: a.Write, way: way}}, ls...)
	r.lines[set] = ls
	return false, evTag, evDirty
}

// find returns the resident line holding addr's block, if any.
func (r *refCache) find(addr uint64) (set int, line refLine, ok bool) {
	bn := addr >> r.blockShift
	set = int(bn % uint64(r.sets))
	for _, l := range r.lines[set] {
		if l.tag == bn {
			return set, l, true
		}
	}
	return set, refLine{}, false
}

// agrees reports whether c's Lookup of addr and its BlockAt and
// Occupancy read-outs match the reference model's contents.
func (r *refCache) agrees(c *Cache, addr uint64) bool {
	set, way, ok := c.Lookup(addr)
	wantSet, line, wantOK := r.find(addr)
	if set != wantSet || ok != wantOK || (ok && way != line.way) || (!ok && way != -1) {
		return false
	}
	n := 0
	for s, ls := range r.lines {
		n += len(ls)
		byWay := make([]*refLine, r.ways)
		for i := range ls {
			byWay[ls[i].way] = &ls[i]
		}
		for w, l := range byWay {
			tag, valid, dirty := c.BlockAt(s, w)
			if l == nil {
				if valid || tag != 0 || dirty {
					return false
				}
			} else if !valid || tag != l.tag || dirty != l.dirty {
				return false
			}
		}
	}
	return c.Occupancy() == n
}

// lruPolicy mirrors policy.LRU without importing it (cachesim cannot
// depend on the policy package).
type lruPolicy struct {
	ways  int
	clock uint64
	stamp []uint64
}

func (p *lruPolicy) Name() string { return "lru-ref" }
func (p *lruPolicy) Reset(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint64, sets*ways)
}
func (p *lruPolicy) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *lruPolicy) Hit(set, way int, a stream.Access)  { p.touch(set, way) }
func (p *lruPolicy) Fill(set, way int, a stream.Access) { p.touch(set, way) }
func (p *lruPolicy) Victim(set int, a stream.Access) int {
	base := set * p.ways
	v, oldest := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if p.stamp[base+w] < oldest {
			v, oldest = w, p.stamp[base+w]
		}
	}
	return v
}
func (p *lruPolicy) Evict(set, way int) { p.stamp[set*p.ways+way] = 0 }

// TestAgainstReferenceModel replays random traces through both models
// and demands identical hit/miss outcomes and dirty-eviction streams,
// and after every access identical Lookup results (for the accessed
// address and one other), BlockAt contents way by way, and Occupancy.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		const sets, ways = 8, 4
		c := New(Geometry{SizeBytes: sets * ways * 64, Ways: ways, BlockSize: 64}, &lruPolicy{})
		var gotWB []uint64
		c.Downstream = stream.SinkFunc(func(a stream.Access) {
			if a.Write {
				gotWB = append(gotWB, a.Addr>>6)
			}
		})
		ref := newRefCache(sets, ways, 6)
		var wantWB []uint64
		for i, ad := range addrs {
			a := stream.Access{Addr: uint64(ad) * 16, Write: i < len(writes) && writes[i]}
			hit := c.Access(a)
			refHit, evTag, evDirty := ref.access(a)
			if hit != refHit {
				return false
			}
			other := uint64(addrs[(i*7+3)%len(addrs)]) * 16
			if !ref.agrees(c, a.Addr) || !ref.agrees(c, other) {
				return false
			}
			if evDirty {
				wantWB = append(wantWB, evTag)
			}
		}
		if len(gotWB) != len(wantWB) {
			return false
		}
		for i := range gotWB {
			if gotWB[i] != wantWB[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReferenceModelLongTrace drives a longer structured trace (strided
// with periodic reuse) through both models.
func TestReferenceModelLongTrace(t *testing.T) {
	const sets, ways = 16, 8
	c := New(Geometry{SizeBytes: sets * ways * 64, Ways: ways, BlockSize: 64}, &lruPolicy{})
	ref := newRefCache(sets, ways, 6)
	var addr uint64
	for i := 0; i < 50000; i++ {
		switch i % 5 {
		case 0, 1, 2:
			addr = uint64(i%3000) * 64 // streaming window
		case 3:
			addr = uint64(i%40) * 64 // hot set
		case 4:
			addr = uint64((i*7)%777) * 64 // strided
		}
		a := stream.Access{Addr: addr, Write: i%4 == 0}
		if c.Access(a) != func() bool { h, _, _ := ref.access(a); return h }() {
			t.Fatalf("divergence at access %d (addr %#x)", i, addr)
		}
	}
}
