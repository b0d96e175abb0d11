package cachesim

import "gspc/internal/stream"

// LRUCache is a set-associative least-recently-used cache that forwards
// its misses and dirty evictions downstream: the model of the render
// caches in front of the LLC (internal/rendercache). Access for access
// it gives the hits, misses, downstream accesses and Stats of a Cache
// with an LRU policy and the same Downstream, NoFetchOnWrite and
// WritebackKind, and it has no bypass, set sampling or observers.
//
// Each block stays in the physical way the Cache would hold it in:
// fills of a non-full set take the next way, and a fill that evicts
// takes the victim's way. Each set keeps its recency as a circular
// doubly linked list through its lines, most recent at the head, and a
// block table maps each resident block to its line. So a hit is one
// table probe and a relink, and a miss into a full set evicts the
// list's tail, with no scan of the set. Flush walks the ways in order,
// as Cache.DrainWritebacks does.
type LRUCache struct {
	ways       int
	blockShift uint
	index      Fastmod
	// lines holds every set's ways, set after set; the first sets[s].used
	// lines of set s hold its valid blocks.
	lines []lruLine
	sets  []lruSet
	// table is an open-addressed, linearly probed map from the block of
	// every valid line to that line: a slot holds a line's index plus
	// one, and zero marks it empty. Its slot count is the first power of
	// two at least four times the cache's lines, so it is at most a
	// quarter full and nearly every probe ends at its first or second
	// slot. A block's probe starts at its home slot, the top bits of its
	// Fibonacci hash, which tableShift keeps.
	table      []int32
	tableShift uint

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

// lruLine is one way. While it holds a valid block, prev and next link
// it into its set's recency list, next toward less recent blocks; both
// are indices into lines, and set is the line's set.
type lruLine struct {
	tag             uint64 // block number
	prev, next, set int32
	dirty           bool
}

// lruSet is a set's most recent line, meaningful once the set holds a
// block, and its count of valid ways.
type lruSet struct {
	head, used int32
}

// fibonacci is 2^64 divided by the golden ratio: multiplying by it
// spreads consecutive block numbers over the table's top bits.
const fibonacci = 0x9e3779b97f4a7c15

// NewLRUCache constructs an empty LRU cache with the given geometry. It
// panics on an invalid geometry, as New does.
func NewLRUCache(geom Geometry) *LRUCache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	lines := sets * geom.Ways
	shift := uint(64)
	for 1<<(64-shift) < 4*lines {
		shift--
	}
	return &LRUCache{
		ways:       geom.Ways,
		blockShift: blockShift(geom.BlockSize),
		index:      NewFastmod(uint64(sets)),
		lines:      make([]lruLine, lines),
		sets:       make([]lruSet, sets),
		table:      make([]int32, 1<<(64-shift)),
		tableShift: shift,
	}
}

// home returns the table slot a block number's probe starts at.
func (c *LRUCache) home(bn uint64) int { return int(bn * fibonacci >> c.tableShift) }

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
	c.Stats.Accesses += 1 + repeats
	c.Stats.KindAccesses[a.Kind] += 1 + repeats
	c.Stats.Hits += repeats
	c.Stats.KindHits[a.Kind] += repeats
	dirty := a.Write || wrote
	mask := len(c.table) - 1
	i := c.home(bn)
	for e := c.table[i]; e != 0; e = c.table[i] {
		if line, l := e-1, &c.lines[e-1]; l.tag == bn {
			l.dirty = l.dirty || dirty
			if st := &c.sets[l.set]; line != st.head {
				// Unlink the line and link it back in at the head.
				c.lines[l.prev].next = l.next
				c.lines[l.next].prev = l.prev
				c.link(st, line)
			}
			c.Stats.Hits++
			c.Stats.KindHits[a.Kind]++
			return true
		}
		i = (i + 1) & mask
	}

	c.Stats.Misses++
	c.Stats.KindMisses[a.Kind]++
	if !(a.Write && c.NoFetchOnWrite) {
		c.Downstream.Emit(stream.Access{Addr: a.Addr, Kind: a.Kind})
	}
	set := int32(c.index.Mod(bn))
	st := &c.sets[set]
	var line int32
	if n := st.used; n < int32(c.ways) {
		line = set*int32(c.ways) + n
		st.used++
		if n == 0 {
			c.lines[line].prev, c.lines[line].next, st.head = line, line, line
		} else {
			c.link(st, line)
		}
	} else {
		// The tail becomes the head by turning the circle one step.
		line = c.lines[st.head].prev
		st.head = line
		v := &c.lines[line]
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
			c.Downstream.Emit(stream.Access{Addr: v.tag << c.blockShift, Kind: c.WritebackKind, Write: true})
		}
		// The probe stopped at the first empty slot from the block's
		// home, where the block goes, unless the slot the victim frees
		// lies between the two.
		h := c.home(bn)
		if f := c.unmap(v.tag); (f-h)&mask < (i-h)&mask {
			i = f
		}
	}
	c.table[i] = line + 1
	l := &c.lines[line]
	l.tag, l.set, l.dirty = bn, set, dirty
	return false
}

// link puts line, which is in no list, at the head of the non-empty
// set st's list.
func (c *LRUCache) link(st *lruSet, line int32) {
	h := st.head
	t := c.lines[h].prev
	c.lines[line].prev, c.lines[line].next = t, h
	c.lines[t].next = line
	c.lines[h].prev = line
	st.head = line
}

// unmap removes block bn, which must be there, from the table and
// returns the slot it leaves empty. Each later slot of its probe cluster
// whose block may sit in the freed slot (its home does not lie after
// the freed slot) moves back into it, which frees that slot in turn, so
// every block stays reachable from its home with no tombstones.
func (c *LRUCache) unmap(bn uint64) int {
	mask := len(c.table) - 1
	i := c.home(bn)
	for c.lines[c.table[i]-1].tag != bn {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		if (j-c.home(c.lines[c.table[j]-1].tag))&mask >= (j-i)&mask {
			c.table[i] = c.table[j]
			i = j
		}
	}
	c.table[i] = 0
	return i
}

// Emit implements stream.Sink, so a cache can be another's Downstream.
func (c *LRUCache) Emit(a stream.Access) { c.Access(a) }

// Flush sends a writeback for every dirty block and marks it clean, set
// by set and within a set in physical-way order. It moves no block.
func (c *LRUCache) Flush() {
	for s, st := range c.sets {
		lines := c.lines[s*c.ways : s*c.ways+int(st.used)]
		for i := range lines {
			if l := &lines[i]; l.dirty {
				l.dirty = false
				c.Downstream.Emit(stream.Access{Addr: l.tag << c.blockShift, Kind: c.WritebackKind, Write: true})
			}
		}
	}
}

// Reset invalidates every block and clears Stats.
func (c *LRUCache) Reset() {
	clear(c.sets)
	clear(c.table)
	c.Stats = Stats{}
}
