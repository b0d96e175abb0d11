package cachesim

import "gspc/internal/stream"

// LRUCache is a set-associative least-recently-used cache that forwards
// its misses and dirty evictions downstream: the model of the render
// caches in front of the LLC (internal/rendercache). Access for access
// it gives the hits, misses, downstream accesses and Stats of a Cache
// with an LRU policy and the same Downstream, NoFetchOnWrite and
// WritebackKind, and it has no bypass, set sampling or observers.
//
// Each set keeps its valid blocks most-recent first, so a hit moves its
// block to the front and a miss into a full set evicts the last block
// without a scan. Each block also records the physical way the Cache
// would hold it in: fills of a non-full set take the next way, and a
// fill that evicts takes the victim's way. Flush drains dirty blocks in
// that way order, as Cache.DrainWritebacks does.
type LRUCache struct {
	ways       int
	blockShift uint
	index      Fastmod
	// lines holds every set's ways, set after set; the first used[set]
	// lines of a set are its valid blocks, most recent first.
	lines []lruLine
	used  []int32
	// drain maps a physical way to its line's position plus one while
	// Flush sorts a set's dirty blocks by way; zero between sets.
	drain []int32

	// Downstream receives the cache's misses and writebacks and must be
	// non-nil. A miss sends a read of the accessed byte address first,
	// then a write of the victim's block address when the fill evicts a
	// dirty block.
	Downstream stream.Sink
	// NoFetchOnWrite and WritebackKind mean what they mean on Cache.
	NoFetchOnWrite bool
	WritebackKind  stream.Kind

	// Stats accumulates outcome counters; Bypasses and SampledSkips stay
	// zero.
	Stats Stats
}

// lruLine is one valid block.
type lruLine struct {
	tag   uint64 // block number
	way   int32  // physical way
	dirty bool
}

// NewLRUCache constructs an empty LRU cache with the given geometry. It
// panics on an invalid geometry, as New does.
func NewLRUCache(geom Geometry) *LRUCache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	return &LRUCache{
		ways:       geom.Ways,
		blockShift: blockShift(geom.BlockSize),
		index:      NewFastmod(uint64(sets)),
		lines:      make([]lruLine, sets*geom.Ways),
		used:       make([]int32, sets),
		drain:      make([]int32, geom.Ways),
	}
}

// Access performs one access and returns whether it hit. Every miss
// allocates.
func (c *LRUCache) Access(a stream.Access) bool { return c.AccessRun(a, 0, false) }

// AccessRun performs a, then repeats more accesses to a's block, and
// returns whether a hit. The repeats take a's kind, and wrote says
// whether any of them wrote. A repeat follows an access that left its
// block most recent, so it hits, moves nothing and sends nothing
// downstream: Stats and the block's dirty bit end as the accesses would
// leave them made one by one, and so does everything the cache sends.
func (c *LRUCache) AccessRun(a stream.Access, repeats int64, wrote bool) bool {
	bn := a.Addr >> c.blockShift
	set := c.index.Mod(bn)
	base := int(set) * c.ways
	n := int(c.used[set])
	c.Stats.Accesses += 1 + repeats
	c.Stats.KindAccesses[a.Kind] += 1 + repeats
	c.Stats.Hits += repeats
	c.Stats.KindHits[a.Kind] += repeats
	dirty := a.Write || wrote
	lines := c.lines[base : base+n]
	for i := range lines {
		if lines[i].tag == bn {
			l := lines[i]
			l.dirty = l.dirty || dirty
			copy(lines[1:i+1], lines[:i])
			lines[0] = l
			c.Stats.Hits++
			c.Stats.KindHits[a.Kind]++
			return true
		}
	}

	c.Stats.Misses++
	c.Stats.KindMisses[a.Kind]++
	if !(a.Write && c.NoFetchOnWrite) {
		c.Downstream.Emit(stream.Access{Addr: a.Addr, Kind: a.Kind})
	}
	way := int32(n)
	if n < c.ways {
		n++
		c.used[set] = int32(n)
		lines = c.lines[base : base+n]
	} else {
		v := lines[n-1]
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
			c.Downstream.Emit(stream.Access{Addr: v.tag << c.blockShift, Kind: c.WritebackKind, Write: true})
		}
		way = v.way
	}
	copy(lines[1:], lines[:n-1])
	lines[0] = lruLine{tag: bn, way: way, dirty: dirty}
	return false
}

// Emit implements stream.Sink, so a cache can be another's Downstream.
func (c *LRUCache) Emit(a stream.Access) { c.Access(a) }

// Flush sends a writeback for every dirty block and marks it clean, set
// by set and within a set in physical-way order. It moves no block.
func (c *LRUCache) Flush() {
	for s, n := range c.used {
		lines := c.lines[s*c.ways : s*c.ways+int(n)]
		dirty := false
		for i, l := range lines {
			if l.dirty {
				c.drain[l.way] = int32(i) + 1
				dirty = true
			}
		}
		if !dirty {
			continue
		}
		// The valid blocks of a set hold ways 0 to n-1.
		for w, p := range c.drain[:n] {
			if p != 0 {
				c.drain[w] = 0
				l := &lines[p-1]
				l.dirty = false
				c.Downstream.Emit(stream.Access{Addr: l.tag << c.blockShift, Kind: c.WritebackKind, Write: true})
			}
		}
	}
}

// Reset invalidates every block and clears Stats.
func (c *LRUCache) Reset() {
	clear(c.used)
	c.Stats = Stats{}
}
