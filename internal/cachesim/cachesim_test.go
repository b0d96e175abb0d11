package cachesim

import (
	"strings"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
)

// fifoPolicy is a minimal deterministic policy for exercising the cache
// mechanics: victimizes ways round-robin per set.
type fifoPolicy struct {
	ways int
	next []int
}

func (p *fifoPolicy) Name() string { return "fifo" }
func (p *fifoPolicy) Reset(sets, ways int) {
	p.ways = ways
	p.next = make([]int, sets)
}
func (p *fifoPolicy) Hit(set, way int, a stream.Access)  {}
func (p *fifoPolicy) Fill(set, way int, a stream.Access) {}
func (p *fifoPolicy) Victim(set int, a stream.Access) int {
	w := p.next[set]
	p.next[set] = (w + 1) % p.ways
	return w
}

func smallCache() *Cache {
	return New(Geometry{SizeBytes: 4 * 64 * 2, Ways: 2, BlockSize: 64}, &fifoPolicy{}) // 4 sets, 2 ways
}

func TestGeometry(t *testing.T) {
	g := Geometry{SizeBytes: 8 << 20, Ways: 16, BlockSize: 64}
	if g.Sets() != 8192 {
		t.Errorf("8MB/16w/64B sets = %d, want 8192", g.Sets())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if g.String() != "8MB/16w/64B" {
		t.Errorf("String = %q", g.String())
	}
	bad := []Geometry{
		{SizeBytes: 0, Ways: 16, BlockSize: 64},
		{SizeBytes: 1 << 20, Ways: 0, BlockSize: 64},
		{SizeBytes: 1 << 20, Ways: 16, BlockSize: 0},
		{SizeBytes: 1000, Ways: 16, BlockSize: 64},
		{SizeBytes: 1 << 20, Ways: 1 << 58, BlockSize: 64},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v should be invalid", g)
		}
	}
}

func TestGeometrySizeString(t *testing.T) {
	if got := (Geometry{SizeBytes: 768 << 10, Ways: 16, BlockSize: 64}).String(); got != "768KB/16w/64B" {
		t.Errorf("String = %q", got)
	}
}

// TestParseSize holds ParseSize to inverting the size Geometry.String
// prints, in bytes, kilobytes and megabytes, and to rejecting anything
// that is not a positive size.
func TestParseSize(t *testing.T) {
	f := func(n uint16, unit uint8) bool {
		size := (int(n)%4096 + 1) << (10 * (unit % 3))
		printed, _, _ := strings.Cut(Geometry{SizeBytes: size, Ways: 1, BlockSize: 1}.String(), "/")
		got, err := ParseSize(printed)
		return err == nil && got == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for in, want := range map[string]int{"768kb": 768 << 10, " 8MB ": 8 << 20, "4096": 4096} {
		if got, err := ParseSize(in); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "abc", "0KB", "-5KB", "KB", "9223372036854775807MB"} {
		if got, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", in, got)
		}
	}
}

func TestNewPanicsOnInvalidGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid geometry")
		}
	}()
	New(Geometry{SizeBytes: 100, Ways: 3, BlockSize: 64}, &fifoPolicy{})
}

func TestHitMissBasics(t *testing.T) {
	c := smallCache()
	if c.Access(stream.Access{Addr: 0}) {
		t.Error("first access must miss")
	}
	if !c.Access(stream.Access{Addr: 0}) {
		t.Error("second access must hit")
	}
	if !c.Access(stream.Access{Addr: 63}) {
		t.Error("same-block access must hit")
	}
	if c.Access(stream.Access{Addr: 64}) {
		t.Error("next block must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestEvictionOnFullSet(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways; blocks mapping to set 0: 0, 4, 8 (x64)
	c.Access(stream.Access{Addr: 0})
	c.Access(stream.Access{Addr: 4 * 64})
	c.Access(stream.Access{Addr: 8 * 64}) // evicts one
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d, want 2 (set full)", c.Occupancy())
	}
	if _, _, ok := c.Lookup(0); ok {
		t.Error("fifo victim should have evicted block 0")
	}
}

func TestDirtyWriteback(t *testing.T) {
	var wb []stream.Access
	c := smallCache()
	c.Downstream = stream.SinkFunc(func(a stream.Access) {
		if a.Write {
			wb = append(wb, a)
		}
	})
	c.WritebackKind = stream.RT
	c.Access(stream.Access{Addr: 0, Write: true})
	c.Access(stream.Access{Addr: 4 * 64})
	c.Access(stream.Access{Addr: 8 * 64}) // evicts block 0 (fifo), dirty
	if len(wb) != 1 {
		t.Fatalf("writebacks = %d, want 1", len(wb))
	}
	if wb[0].Addr != 0 || wb[0].Kind != stream.RT || !wb[0].Write {
		t.Errorf("writeback = %+v", wb[0])
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("stats writebacks = %d", c.Stats.Writebacks)
	}
}

func TestDownstreamFetchOnMiss(t *testing.T) {
	var reads []stream.Access
	c := smallCache()
	c.Downstream = stream.SinkFunc(func(a stream.Access) {
		if !a.Write {
			reads = append(reads, a)
		}
	})
	c.Access(stream.Access{Addr: 128, Kind: stream.Z, Write: true})
	if len(reads) != 1 || reads[0].Kind != stream.Z || reads[0].Write {
		t.Fatalf("demand fetch = %+v", reads)
	}
	c.Access(stream.Access{Addr: 128}) // hit: no fetch
	if len(reads) != 1 {
		t.Error("hit triggered a downstream fetch")
	}
}

func TestNoFetchOnWrite(t *testing.T) {
	var reads int
	c := smallCache()
	c.NoFetchOnWrite = true
	c.Downstream = stream.SinkFunc(func(a stream.Access) {
		if !a.Write {
			reads++
		}
	})
	c.Access(stream.Access{Addr: 0, Write: true})
	if reads != 0 {
		t.Error("write miss fetched despite NoFetchOnWrite")
	}
	c.Access(stream.Access{Addr: 64})
	if reads != 1 {
		t.Error("read miss should still fetch")
	}
}

func TestBypassKind(t *testing.T) {
	var down []stream.Access
	c := smallCache()
	c.SetBypass(stream.Display, true)
	c.Downstream = stream.SinkFunc(func(a stream.Access) { down = append(down, a) })
	c.Access(stream.Access{Addr: 0, Kind: stream.Display, Write: true})
	c.Access(stream.Access{Addr: 0, Kind: stream.Display, Write: true})
	if c.Stats.Bypasses != 2 || c.Stats.Hits != 0 {
		t.Errorf("stats %+v", c.Stats)
	}
	if c.Occupancy() != 0 {
		t.Error("bypassed access allocated a block")
	}
	if len(down) != 2 || !down[0].Write {
		t.Errorf("bypass downstream = %+v", down)
	}
}

func TestPolicyBypassViaNegativeVictim(t *testing.T) {
	p := &fifoPolicy{}
	c := New(Geometry{SizeBytes: 64 * 2, Ways: 2, BlockSize: 64}, p) // 1 set
	c.Access(stream.Access{Addr: 0})
	c.Access(stream.Access{Addr: 64})
	// Override: make victim refuse.
	refusing := &refusingPolicy{}
	c2 := New(Geometry{SizeBytes: 64 * 2, Ways: 2, BlockSize: 64}, refusing)
	c2.Access(stream.Access{Addr: 0})
	c2.Access(stream.Access{Addr: 64})
	c2.Access(stream.Access{Addr: 128})
	if c2.Stats.Bypasses != 1 {
		t.Errorf("policy bypass not counted: %+v", c2.Stats)
	}
	if _, _, ok := c2.Lookup(128); ok {
		t.Error("refused block was installed")
	}
}

type refusingPolicy struct{ fifoPolicy }

func (p *refusingPolicy) Victim(set int, a stream.Access) int { return -1 }

func TestObserverEventSequence(t *testing.T) {
	var evs []Event
	c := New(Geometry{SizeBytes: 64 * 2, Ways: 2, BlockSize: 64}, &fifoPolicy{})
	c.AddObserver(ObserverFunc(func(ev Event) { evs = append(evs, ev) }))
	c.Access(stream.Access{Addr: 0, Write: true}) // fill
	c.Access(stream.Access{Addr: 0})              // hit
	c.Access(stream.Access{Addr: 64})             // fill
	c.Access(stream.Access{Addr: 128})            // evict + fill
	types := []EventType{EvFill, EvHit, EvFill, EvEvict, EvFill}
	if len(evs) != len(types) {
		t.Fatalf("got %d events, want %d", len(evs), len(types))
	}
	for i, want := range types {
		if evs[i].Type != want {
			t.Errorf("event %d type = %v, want %v", i, evs[i].Type, want)
		}
	}
	// The eviction must report the victim's tag and dirtiness.
	if evs[3].Tag != 0 || !evs[3].Dirty {
		t.Errorf("evict event = %+v", evs[3])
	}
}

func TestDrainWritebacks(t *testing.T) {
	var wb int
	c := smallCache()
	c.Downstream = stream.SinkFunc(func(a stream.Access) {
		if a.Write {
			wb++
		}
	})
	c.Access(stream.Access{Addr: 0, Write: true})
	c.Access(stream.Access{Addr: 64, Write: true})
	c.Access(stream.Access{Addr: 128})
	c.DrainWritebacks()
	if wb != 2 {
		t.Errorf("drained %d writebacks, want 2", wb)
	}
	// Idempotent: blocks are now clean.
	c.DrainWritebacks()
	if wb != 2 {
		t.Error("second drain wrote back again")
	}
	// Blocks remain valid after drain.
	if _, _, ok := c.Lookup(0); !ok {
		t.Error("drain invalidated blocks")
	}
}

func TestReset(t *testing.T) {
	c := smallCache()
	c.Access(stream.Access{Addr: 0})
	c.Reset()
	if c.Stats.Accesses != 0 || c.Occupancy() != 0 {
		t.Error("reset did not clear state")
	}
	if c.Access(stream.Access{Addr: 0}) {
		t.Error("hit after reset")
	}
}

func TestLookupAndBlockAt(t *testing.T) {
	c := smallCache()
	c.Access(stream.Access{Addr: 256, Write: true})
	set, way, ok := c.Lookup(256)
	if !ok {
		t.Fatal("block not found")
	}
	tag, valid, dirty := c.BlockAt(set, way)
	if !valid || !dirty || tag != 256/64 {
		t.Errorf("BlockAt = (%d, %v, %v)", tag, valid, dirty)
	}
}

// Property: for any access sequence, accesses = hits + misses, bypasses
// <= misses, and no set ever holds two blocks with the same tag.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := New(Geometry{SizeBytes: 8 * 64 * 4, Ways: 4, BlockSize: 64}, &fifoPolicy{})
		for i, ad := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(stream.Access{Addr: uint64(ad) * 16, Write: w})
		}
		if c.Stats.Accesses != c.Stats.Hits+c.Stats.Misses {
			return false
		}
		if c.Stats.Bypasses > c.Stats.Misses {
			return false
		}
		// No duplicate tags within a set.
		for s := 0; s < c.Sets(); s++ {
			seen := map[uint64]bool{}
			for w := 0; w < c.Ways(); w++ {
				tag, valid, _ := c.BlockAt(s, w)
				if !valid {
					continue
				}
				if seen[tag] {
					return false
				}
				seen[tag] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity and equals the number of
// distinct blocks touched when that number fits.
func TestOccupancyProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		c := New(Geometry{SizeBytes: 16 * 64 * 4, Ways: 4, BlockSize: 64}, &fifoPolicy{})
		distinct := map[uint64]bool{}
		for _, ad := range addrs {
			a := uint64(ad) * 64
			c.Access(stream.Access{Addr: a})
			distinct[a/64] = true
		}
		if c.Occupancy() > c.Sets()*c.Ways() {
			return false
		}
		// 256 possible blocks over 64-block capacity: occupancy is at
		// most the number of distinct blocks.
		return c.Occupancy() <= len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
