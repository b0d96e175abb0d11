// Package cachesim implements a generic set-associative cache model with
// pluggable replacement policies, per-stream statistics, bypass support,
// and observer hooks for characterization. It is the offline LLC simulator
// of the paper (Section 2) and the LLC of the timing model
// (internal/gpu). The render caches in front of the LLC
// (internal/rendercache) use LRUCache instead: a fixed-LRU model with a
// downstream sink that keeps each set in recency order and matches, access
// for access, a Cache with an LRU policy.
package cachesim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gspc/internal/stream"
)

// Geometry describes a cache organization.
type Geometry struct {
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// BlockSize is the line size in bytes (64 in all paper configurations).
	BlockSize int
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int { return g.SizeBytes / (g.Ways * g.BlockSize) }

// Validate reports a descriptive error for malformed geometries.
func (g Geometry) Validate() error {
	switch {
	case g.BlockSize <= 0:
		return fmt.Errorf("cachesim: block size %d must be positive", g.BlockSize)
	case g.Ways <= 0:
		return fmt.Errorf("cachesim: associativity %d must be positive", g.Ways)
	case g.SizeBytes <= 0:
		return fmt.Errorf("cachesim: size %d must be positive", g.SizeBytes)
	case g.Ways > g.SizeBytes/g.BlockSize:
		// Checked before the product below, which can overflow.
		return fmt.Errorf("cachesim: size %d holds fewer than %d ways of %d-byte blocks", g.SizeBytes, g.Ways, g.BlockSize)
	case g.SizeBytes%(g.Ways*g.BlockSize) != 0:
		return fmt.Errorf("cachesim: size %d is not a multiple of ways*block (%d)", g.SizeBytes, g.Ways*g.BlockSize)
	}
	return nil
}

// String renders the geometry as e.g. "8MB/16w/64B".
func (g Geometry) String() string {
	return fmt.Sprintf("%s/%dw/%dB", formatSize(g.SizeBytes), g.Ways, g.BlockSize)
}

func formatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseSize parses a capacity the way Geometry.String prints one ("8MB",
// "768KB", "96B") or as a bare byte count, ignoring case and surrounding
// space. It inverts formatSize and rejects sizes that are not positive
// or do not fit in an int.
func ParseSize(s string) (int, error) {
	num, mult := strings.ToUpper(strings.TrimSpace(s)), 1
	switch {
	case strings.HasSuffix(num, "MB"):
		num, mult = num[:len(num)-2], 1<<20
	case strings.HasSuffix(num, "KB"):
		num, mult = num[:len(num)-2], 1<<10
	case strings.HasSuffix(num, "B"):
		num = num[:len(num)-1]
	}
	v, err := strconv.Atoi(num)
	if err != nil || v <= 0 || v > math.MaxInt/mult {
		return 0, fmt.Errorf("cachesim: bad size %q: want a positive size like 8MB, 768KB or 96B", s)
	}
	return v * mult, nil
}

// Policy is a replacement policy attached to a Cache. The cache owns tags,
// validity, and dirty bits; the policy owns all replacement state, which
// it allocates in Reset. All callbacks receive the access that triggered
// them so stream-aware policies can key on the stream kind. A miss into
// a full set calls Victim and then Fill on the way Victim chose: that
// Fill replaces the way's block, so a policy that learns from the
// blocks it evicts does so there, from the state the way still holds.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset (re)allocates replacement state for a cache with the given
	// number of sets and ways and clears any learned state.
	Reset(sets, ways int)
	// Hit is invoked when access a hits the block at (set, way).
	Hit(set, way int, a stream.Access)
	// Fill is invoked after a missing block is installed at (set, way),
	// which is either a way no block has held since Reset or the way
	// Victim just chose.
	Fill(set, way int, a stream.Access)
	// Victim selects the way to evict from a full set to make room for
	// access a. Returning a negative way bypasses the fill: the access is
	// counted as a miss and nothing is installed.
	Victim(set int, a stream.Access) int
}

// EventType discriminates observer events.
type EventType uint8

// Observer event types. For a miss that evicts a valid block, observers
// see EvEvict (carrying the victim's tag) followed by EvFill.
const (
	EvHit EventType = iota
	EvFill
	EvEvict
	EvBypass
)

// Event is delivered to observers on every cache transaction.
type Event struct {
	Type EventType
	// Access is the triggering access (for EvEvict it is the access whose
	// fill displaced the victim).
	Access stream.Access
	// Set and Way locate the affected block. Way is -1 for EvBypass.
	Set, Way int
	// Tag is the block number of the affected block; for EvEvict it is
	// the victim's block number.
	Tag uint64
	// Dirty is set on EvEvict when the victim required a writeback.
	Dirty bool
}

// Observer receives cache events. Characterization metrics (stream reuse,
// epochs, death ratios) are implemented as observers in internal/analysis.
type Observer interface {
	Observe(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event)

// Observe calls f(ev).
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// Stats aggregates access outcomes, overall and per stream kind.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Bypasses   int64 // subset of Misses that did not allocate
	Evictions  int64
	Writebacks int64 // dirty evictions
	// SampledSkips counts accesses dropped by set sampling before any
	// other counter or policy state was touched; they are not part of
	// Accesses. Always zero on an unsampled cache.
	SampledSkips int64

	KindAccesses [stream.NumKinds]int64
	KindHits     [stream.NumKinds]int64
	KindMisses   [stream.NumKinds]int64
}

// HitRate returns Hits/Accesses, or 0 when there were no accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// KindHitRate returns the hit rate restricted to stream kind k.
func (s *Stats) KindHitRate(k stream.Kind) float64 {
	if s.KindAccesses[k] == 0 {
		return 0
	}
	return float64(s.KindHits[k]) / float64(s.KindAccesses[k])
}

// Cache is a set-associative cache with a pluggable replacement policy.
// It implements stream.Sink so it can terminate a pipeline of sinks.
type Cache struct {
	geom       Geometry
	sets, ways int
	blockShift uint
	// tags holds every way's block number plus one, set after set; zero
	// marks an invalid way. The valid ways of a set always form a
	// prefix of it: fills take the first invalid way, evictions refill
	// the victim's way in place, and only Reset invalidates. A scan of
	// the set therefore stops at the hit or at the first zero, which is
	// also the way a miss fills. Block numbers are addresses shifted
	// right by at least one bit, so the +1 never wraps.
	tags []uint64
	// dirty is the per-way dirty bit, indexed like tags; only valid ways
	// are ever dirty.
	dirty  []bool
	policy Policy

	// indexSets is the set count addresses map through (the geometry's
	// full count), and index reduces block numbers modulo it. It equals
	// sets unless the cache is set-sampled, in which case sets is the
	// sampled subset size, storage and policy state are in compact
	// sampled-set space, and sampleMap translates a full-geometry set
	// index to its compact index (-1 = unsampled).
	indexSets int
	index     Fastmod
	sample    SetSample
	sampleMap []int32
	// setAcc counts accesses per sampled set, feeding the variance
	// estimate in SampleReport. Nil on unsampled caches.
	setAcc []int64

	// bypassKind[k] forces accesses of kind k to bypass the cache
	// entirely (they are counted as misses and forwarded downstream).
	// This implements the paper's "uncached displayable color" (UCD).
	bypassKind [stream.NumKinds]bool

	observers []Observer

	// Downstream, when non-nil, receives a read access for every miss
	// (demand fill or bypass) and a write access for every dirty
	// eviction. This is how render caches feed the LLC.
	Downstream stream.Sink
	// NoFetchOnWrite suppresses the downstream demand fetch for write
	// misses: the block is allocated and validated locally (write
	// combining). Color pipelines write whole tiles, so the render
	// target cache never reads the old contents from the LLC; its
	// stores reach downstream only as writebacks.
	NoFetchOnWrite bool
	// WritebackKind is the stream kind attached to writeback accesses
	// emitted downstream. Render caches serve a single stream, so the
	// kind is a property of the cache.
	WritebackKind stream.Kind

	// Stats accumulates outcome counters.
	Stats Stats
}

// New constructs a cache with the given geometry and policy. It panics on
// an invalid geometry (a programming error, not a runtime condition).
func New(geom Geometry, policy Policy) *Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return newCache(geom, policy, geom.Sets())
}

// newCache allocates a cache simulating sets sets of an already
// validated geometry: all of them, or a set-sampled subset whose
// sampleMap the caller fills in.
func newCache(geom Geometry, policy Policy, sets int) *Cache {
	c := &Cache{
		geom:       geom,
		sets:       sets,
		indexSets:  geom.Sets(),
		index:      NewFastmod(uint64(geom.Sets())),
		ways:       geom.Ways,
		blockShift: blockShift(geom.BlockSize),
		policy:     policy,
	}
	c.tags = make([]uint64, sets*c.ways)
	c.dirty = make([]bool, sets*c.ways)
	policy.Reset(sets, c.ways)
	return c
}

// blockShift returns log2 of a block size, panicking unless the size is
// a power of two of at least 2 bytes.
func blockShift(blockSize int) uint {
	var shift uint
	for 1<<shift < blockSize {
		shift++
	}
	if 1<<shift != blockSize || shift == 0 {
		panic(fmt.Sprintf("cachesim: block size %d is not a power of two of at least 2 bytes", blockSize))
	}
	return shift
}

// Geometry returns the cache organization.
func (c *Cache) Geometry() Geometry { return c.geom }

// Sets returns the number of simulated sets: the geometry's count, or
// the sampled subset size for a set-sampled cache. Observers and
// policies are sized and indexed by this count.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetBypass configures stream kind k to bypass the cache when on is true.
func (c *Cache) SetBypass(k stream.Kind, on bool) {
	c.bypassKind[k] = on
}

// AddObserver registers an observer for cache events.
func (c *Cache) AddObserver(o Observer) {
	c.observers = append(c.observers, o)
}

// BlockNumber returns the block number (tag) for a byte address.
func (c *Cache) BlockNumber(addr uint64) uint64 { return addr >> c.blockShift }

// SetIndex returns the set an address maps to in the full geometry
// (not the compact sampled index).
func (c *Cache) SetIndex(addr uint64) int {
	return int(c.index.Mod(addr >> c.blockShift))
}

// Lookup reports whether addr is resident and, if so, its location.
// The returned set is the simulated (compact) index, consistent with
// BlockAt; on a sampled cache an address mapping to an unsampled set
// reports (-1, -1, false).
func (c *Cache) Lookup(addr uint64) (set, way int, ok bool) {
	bn := c.BlockNumber(addr)
	set = int(c.index.Mod(bn))
	if c.sampleMap != nil {
		cs := c.sampleMap[set]
		if cs < 0 {
			return -1, -1, false
		}
		set = int(cs)
	}
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == bn+1 {
			return set, w, true
		}
		if t == 0 {
			break
		}
	}
	return set, -1, false
}

// BlockAt returns (tag, valid, dirty) for the block at (set, way). An
// invalid way reports a zero tag.
func (c *Cache) BlockAt(set, way int) (tag uint64, valid, dirty bool) {
	i := set*c.ways + way
	if t := c.tags[i]; t != 0 {
		return t - 1, true, c.dirty[i]
	}
	return 0, false, false
}

// Occupancy returns the number of valid blocks.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Emit implements stream.Sink by performing the access and discarding the
// hit/miss outcome.
func (c *Cache) Emit(a stream.Access) { c.Access(a) }

// Access performs one cache access and returns whether it hit. Misses
// always allocate (the paper's LLC fills every miss) unless the stream is
// configured to bypass or the policy declines a victim. Observer events
// are built only when an observer is attached.
func (c *Cache) Access(a stream.Access) bool {
	bn := a.Addr >> c.blockShift
	set := int(c.index.Mod(bn))
	if c.sampleMap != nil {
		cs := c.sampleMap[set]
		if cs < 0 {
			c.Stats.SampledSkips++
			return false
		}
		c.setAcc[cs]++
		set = int(cs)
	}
	c.Stats.Accesses++
	c.Stats.KindAccesses[a.Kind]++
	base := set * c.ways
	tags := c.tags[base : base+c.ways]

	// One scan finds the hit or, since valid ways form a prefix, the
	// first invalid way; way stays len(tags) when the set is full.
	way := len(tags)
	for w, t := range tags {
		if t == bn+1 {
			c.Stats.Hits++
			c.Stats.KindHits[a.Kind]++
			if a.Write {
				c.dirty[base+w] = true
			}
			c.policy.Hit(set, w, a)
			if len(c.observers) != 0 {
				c.notify(Event{Type: EvHit, Access: a, Set: set, Way: w, Tag: bn})
			}
			return true
		}
		if t == 0 {
			way = w
			break
		}
	}

	// Miss.
	c.Stats.Misses++
	c.Stats.KindMisses[a.Kind]++
	if c.bypassKind[a.Kind] {
		// The access skips the cache entirely: reads fetch from
		// downstream, writes go straight through.
		c.Stats.Bypasses++
		if c.Downstream != nil {
			c.Downstream.Emit(stream.Access{Addr: a.Addr, Kind: a.Kind, Write: a.Write})
		}
		if len(c.observers) != 0 {
			c.notify(Event{Type: EvBypass, Access: a, Set: set, Way: -1, Tag: bn})
		}
		return false
	}
	if c.Downstream != nil && !(a.Write && c.NoFetchOnWrite) {
		// Demand fill: the block is fetched from downstream regardless of
		// whether the triggering access is a load or a store (write
		// allocate); store data reaches downstream later as a writeback.
		c.Downstream.Emit(stream.Access{Addr: a.Addr, Kind: a.Kind})
	}

	// Fill the first invalid way, else ask the policy for a victim.
	if way == len(tags) {
		way = c.policy.Victim(set, a)
		if way < 0 {
			c.Stats.Bypasses++
			if len(c.observers) != 0 {
				c.notify(Event{Type: EvBypass, Access: a, Set: set, Way: -1, Tag: bn})
			}
			return false
		}
		if way >= c.ways {
			panic(fmt.Sprintf("cachesim: policy %s returned way %d of %d", c.policy.Name(), way, c.ways))
		}
		victim, dirty := tags[way]-1, c.dirty[base+way]
		c.Stats.Evictions++
		if dirty {
			c.Stats.Writebacks++
			if c.Downstream != nil {
				c.Downstream.Emit(stream.Access{
					Addr:  victim << c.blockShift,
					Kind:  c.WritebackKind,
					Write: true,
				})
			}
		}
		if len(c.observers) != 0 {
			c.notify(Event{Type: EvEvict, Access: a, Set: set, Way: way, Tag: victim, Dirty: dirty})
		}
	}

	tags[way] = bn + 1
	c.dirty[base+way] = a.Write
	c.policy.Fill(set, way, a)
	if len(c.observers) != 0 {
		c.notify(Event{Type: EvFill, Access: a, Set: set, Way: way, Tag: bn})
	}
	return false
}

// DrainWritebacks emits a downstream write for every dirty block and
// marks it clean, set by set and way by way: a frame-boundary flush.
// LRUCache.Flush, which the render caches call at frame end, emits in
// the same order, and tests hold it to this method.
func (c *Cache) DrainWritebacks() {
	if c.Downstream == nil {
		return
	}
	for i, d := range c.dirty {
		if d {
			c.Downstream.Emit(stream.Access{
				Addr:  (c.tags[i] - 1) << c.blockShift,
				Kind:  c.WritebackKind,
				Write: true,
			})
			c.dirty[i] = false
		}
	}
}

// Reset invalidates all blocks, clears statistics, and resets the policy.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.dirty)
	c.Stats = Stats{}
	clear(c.setAcc)
	c.policy.Reset(c.sets, c.ways)
}

// ResetCounters zeroes the outcome counters (Stats and the per-set
// access counts behind SampleReport) while leaving cache contents,
// policy state, and observers untouched — the warmup/measured boundary
// of interval-sampled replays.
func (c *Cache) ResetCounters() {
	c.Stats = Stats{}
	clear(c.setAcc)
}

func (c *Cache) notify(ev Event) {
	for _, o := range c.observers {
		o.Observe(ev)
	}
}
