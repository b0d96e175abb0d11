package cachesim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
)

// refCache is an independent, deliberately naive reference model of a
// set-associative LRU cache: per-set slices searched linearly, recency
// maintained by reordering. The production Cache with an LRU policy must
// agree with it access-for-access — the analogue of the paper validating
// its offline cache model against the detailed simulator. The model
// also covers set sampling (accesses to unsampled sets change nothing
// but a skip count), a bypassed stream kind, a policy that declines to
// evict every third block number, and every Stats counter.
type refCache struct {
	sets       int
	ways       int
	blockShift uint
	// compact maps a set to its sampled-set index, -1 when unsampled.
	compact  []int
	bypass   stream.Kind
	declines bool
	lines    [][]refLine // per set, MRU first
	stats    Stats
	// setAcc counts accesses per sampled set; nil when unsampled.
	setAcc []int64
}

// refLine is one resident block. way is the physical way it occupies:
// fills of a non-full set take the next way in order, and a fill that
// evicts takes the victim's way.
type refLine struct {
	tag   uint64
	dirty bool
	way   int
}

func newRefCache(sets, ways int, blockShift uint, sample SetSample, bypass stream.Kind, declines bool) *refCache {
	r := &refCache{sets: sets, ways: ways, blockShift: blockShift, bypass: bypass, declines: declines}
	n := 0
	for s := 0; s < sets; s++ {
		r.compact = append(r.compact, -1)
		if !sample.Enabled() || sample.Selected(s) {
			r.compact[s] = n
			n++
		}
	}
	if sample.Enabled() {
		r.setAcc = make([]int64, n)
	}
	r.reset()
	return r
}

func (r *refCache) reset() {
	r.lines = make([][]refLine, r.sets)
	r.stats = Stats{}
	clear(r.setAcc)
}

// access returns whether a hit, and the accesses the cache sends
// downstream: the access itself when its kind bypasses, else a demand
// fetch for a miss and a writeback when the fill evicts a dirty block.
func (r *refCache) access(a stream.Access) (bool, []stream.Access) {
	bn := a.Addr >> r.blockShift
	set := int(bn % uint64(r.sets))
	if r.compact[set] < 0 {
		r.stats.SampledSkips++
		return false, nil
	}
	if r.setAcc != nil {
		r.setAcc[r.compact[set]]++
	}
	r.stats.Accesses++
	r.stats.KindAccesses[a.Kind]++
	ls := r.lines[set]
	for i := range ls {
		if ls[i].tag == bn {
			line := ls[i]
			if a.Write {
				line.dirty = true
			}
			copy(ls[1:i+1], ls[:i])
			ls[0] = line
			r.stats.Hits++
			r.stats.KindHits[a.Kind]++
			return true, nil
		}
	}
	r.stats.Misses++
	r.stats.KindMisses[a.Kind]++
	if a.Kind == r.bypass {
		r.stats.Bypasses++
		return false, []stream.Access{{Addr: a.Addr, Kind: a.Kind, Write: a.Write}}
	}
	down := []stream.Access{{Addr: a.Addr, Kind: a.Kind}}
	// Miss: insert at MRU, evicting LRU if full (unless declined).
	way := len(ls)
	if len(ls) == r.ways {
		if r.declines && bn%3 == 0 {
			r.stats.Bypasses++
			return false, down
		}
		ev := ls[len(ls)-1]
		r.stats.Evictions++
		if ev.dirty {
			r.stats.Writebacks++
			down = append(down, stream.Access{Addr: ev.tag << r.blockShift, Kind: stream.RT, Write: true})
		}
		way = ev.way
		ls = ls[:len(ls)-1]
	}
	r.lines[set] = append([]refLine{{tag: bn, dirty: a.Write, way: way}}, ls...)
	return false, down
}

// find returns the resident line holding addr's block, if any, and the
// block's set in compact index space (-1 when unsampled).
func (r *refCache) find(addr uint64) (set int, line refLine, ok bool) {
	bn := addr >> r.blockShift
	full := int(bn % uint64(r.sets))
	for _, l := range r.lines[full] {
		if l.tag == bn {
			return r.compact[full], l, true
		}
	}
	return r.compact[full], refLine{}, false
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
		if r.compact[s] < 0 {
			continue
		}
		byWay := make([]*refLine, r.ways)
		for i := range ls {
			byWay[ls[i].way] = &ls[i]
		}
		for w, l := range byWay {
			tag, valid, dirty := c.BlockAt(r.compact[s], w)
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
// depend on the policy package). It also counts Hit calls since Reset:
// a repeated hit leaves LRU order unchanged, so only the count shows
// whether every hit reached the policy.
type lruPolicy struct {
	ways  int
	clock uint64
	stamp []uint64
	hits  int64
}

func (p *lruPolicy) Name() string { return "lru-ref" }
func (p *lruPolicy) Reset(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint64, sets*ways)
	p.hits = 0
}
func (p *lruPolicy) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *lruPolicy) Hit(set, way int, a stream.Access)  { p.hits++; p.touch(set, way) }
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

// refTrace is a testTrace for a cache of refSets sets of 1 to 40 ways,
// so a set's row of per-way bytes is one word, several, with or without
// a partial last word. A third of the traces draw their blocks from a
// pool of 2 to 2·ways+1 distinct blocks of one set whose Fibonacci
// hashes share their top seven bits, the fingerprint the cache keeps
// per way, so a lookup must tell them apart by their full tags.
type refTrace struct {
	Ways int
	testTrace
}

const refSets = 8

// Generate implements quick.Generator.
func (refTrace) Generate(r *rand.Rand, size int) reflect.Value {
	tr := refTrace{Ways: 1 + r.Intn(40)}
	if r.Intn(3) != 0 {
		tr.testTrace = testTrace{}.Generate(r, size).Interface().(testTrace)
		return reflect.ValueOf(tr)
	}
	pool := sameHashTop(r, r.Intn(refSets), 2+r.Intn(2*tr.Ways))
	tr.testTrace = genRuns(r, size, func() uint64 { return pool[r.Intn(len(pool))] })
	return reflect.ValueOf(tr)
}

// sameHashTop returns n distinct block numbers of set (modulo refSets)
// whose products with 2^64/φ share their top seven bits.
func sameHashTop(r *rand.Rand, set, n int) []uint64 {
	const fib = 0x9e3779b97f4a7c15
	bn := (r.Uint64()>>20)*refSets + uint64(set)
	top := bn * fib >> 57
	pool := []uint64{bn}
	for len(pool) < n {
		if bn += refSets; bn*fib>>57 == top {
			pool = append(pool, bn)
		}
	}
	return pool
}

// TestAgainstReferenceModel replays random traces, plain and
// repeat-heavy (refTrace: 8 sets of 1 to 40 ways, a third of the traces
// on blocks that share a fingerprint), through both models on a full
// and a set-sampled cache, with one stream kind bypassed and optionally
// a policy that declines victims. It demands identical hit/miss
// outcomes, downstream streams
// and per-set access counts, and after every access identical Stats,
// Lookup results (for the accessed address and one other), BlockAt
// contents way by way, Occupancy, and one policy Hit call per hit. Both
// models are Reset where the trace says.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(tr refTrace, bypass uint8, sampled, declines bool) bool {
		sets, ways := refSets, tr.Ways
		var sample SetSample
		if sampled {
			sample = SetSample{Ratio: 2, Seed: 3}
		}
		lru := &lruPolicy{}
		var pol Policy = lru
		if declines {
			pol = &bypassingPolicy{lru}
		}
		c := NewSampled(Geometry{SizeBytes: sets * ways * 64, Ways: ways, BlockSize: 64}, pol, sample)
		kind := stream.Kind(bypass % uint8(stream.NumKinds))
		c.SetBypass(kind, true)
		c.WritebackKind = stream.RT
		var got, want []stream.Access
		c.Downstream = stream.SinkFunc(func(a stream.Access) { got = append(got, a) })
		ref := newRefCache(sets, ways, 6, sample, kind, declines)
		for i, a := range tr.Accs {
			if i == tr.ResetAt {
				c.Reset()
				ref.reset()
			}
			hit := c.Access(a)
			refHit, down := ref.access(a)
			want = append(want, down...)
			if hit != refHit || c.Stats != ref.stats || lru.hits != ref.stats.Hits {
				return false
			}
			other := tr.Accs[(i*7+3)%len(tr.Accs)].Addr
			if !ref.agrees(c, a.Addr) || !ref.agrees(c, other) {
				return false
			}
		}
		return slices.Equal(got, want) && slices.Equal(c.setAcc, ref.setAcc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReferenceModelLongTrace drives a longer structured trace (strided
// with periodic reuse) through both models.
func TestReferenceModelLongTrace(t *testing.T) {
	const sets, ways = 16, 8
	c := New(Geometry{SizeBytes: sets * ways * 64, Ways: ways, BlockSize: 64}, &lruPolicy{})
	ref := newRefCache(sets, ways, 6, SetSample{}, stream.NumKinds, false)
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
		if hit, _ := ref.access(a); c.Access(a) != hit {
			t.Fatalf("divergence at access %d (addr %#x)", i, addr)
		}
	}
}
