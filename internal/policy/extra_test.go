package policy

import (
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

func TestDIPHitPromotes(t *testing.T) {
	p := NewDIP()
	c := oneSet(4, p)
	for i := 0; i < 4; i++ {
		c.Access(stream.Access{Addr: blockAddr(i)})
	}
	c.Access(stream.Access{Addr: blockAddr(0)}) // promote 0 to MRU
	c.Access(stream.Access{Addr: blockAddr(4)}) // evict the LRU (1)
	if _, _, ok := c.Lookup(blockAddr(0)); !ok {
		t.Error("promoted block evicted")
	}
	if _, _, ok := c.Lookup(blockAddr(1)); ok {
		t.Error("LRU block survived")
	}
}

func TestDIPBimodalLeaderInsertsAtLRU(t *testing.T) {
	p := NewDIP()
	p.Reset(64, 4)
	// In the BIP leader set (33), fills land at the LRU position, so a
	// block only survives eviction pressure if it is promoted by a hit.
	for w := 0; w < 4; w++ {
		p.Fill(33, w, stream.Access{})
	}
	p.Hit(33, 2, stream.Access{}) // promote way 2 to MRU
	v := p.Victim(33, stream.Access{})
	if v == 2 {
		t.Error("promoted block chosen as victim in BIP leader")
	}
	// All other blocks are unpromoted LIP inserts: victims before way 2.
	for i := 0; i < 3; i++ {
		v := p.Victim(33, stream.Access{})
		if v == 2 {
			t.Fatal("promoted block victimized while LIP blocks remain")
		}
		p.Fill(33, v, stream.Access{Kind: stream.Z})
	}
}

func TestDIPDuelConverges(t *testing.T) {
	p := NewDIP()
	p.Reset(64, 4)
	start := p.PSEL()
	for i := 0; i < 50; i++ {
		p.Fill(0, i%4, stream.Access{}) // misses in MRU-insertion leader
	}
	if p.PSEL() <= start {
		t.Error("PSEL did not move toward BIP after MRU-leader misses")
	}
}

func TestDIPFuzz(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 64, Ways: 4, BlockSize: 64}, NewDIP())
		for _, ad := range addrs {
			c.Access(stream.Access{Addr: uint64(ad) * 64})
		}
		return c.Stats.Accesses == c.Stats.Hits+c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPeLIFOPrefersDeadTopOfStack(t *testing.T) {
	p := NewPeLIFO()
	c := oneSet(4, p)
	for i := 0; i < 4; i++ {
		c.Access(stream.Access{Addr: blockAddr(i)})
	}
	// Reuse blocks 2 and 3 so they escape; 0 and 1 are dead, with 3's
	// fill being the most recent dead... actually 1 is shallower than 0.
	c.Access(stream.Access{Addr: blockAddr(2)})
	c.Access(stream.Access{Addr: blockAddr(3)})
	c.Access(stream.Access{Addr: blockAddr(4)})
	// Victim must be one of the dead blocks (0 or 1), not 2 or 3.
	if _, _, ok := c.Lookup(blockAddr(2)); !ok {
		t.Error("escaped block 2 was evicted")
	}
	if _, _, ok := c.Lookup(blockAddr(3)); !ok {
		t.Error("escaped block 3 was evicted")
	}
}

func TestPeLIFOFallbackWhenAllEscaped(t *testing.T) {
	p := NewPeLIFO()
	c := oneSet(2, p)
	c.Access(stream.Access{Addr: blockAddr(0)})
	c.Access(stream.Access{Addr: blockAddr(1)})
	c.Access(stream.Access{Addr: blockAddr(0)})
	c.Access(stream.Access{Addr: blockAddr(1)})
	// Both escaped; a fill must still find a victim.
	c.Access(stream.Access{Addr: blockAddr(2)})
	if c.Occupancy() != 2 {
		t.Error("cache corrupted after all-escaped eviction")
	}
}

func TestCounterDBPLearnsLifetimes(t *testing.T) {
	p := NewCounterDBP()
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 2, Ways: 2, BlockSize: 64}, p)
	// Single-use texture blocks streaming through: learned lifetime
	// should settle near 1.
	for i := 0; i < 200; i++ {
		c.Access(stream.Access{Addr: uint64(i) * 64, Kind: stream.Texture})
	}
	if lt := p.LearnedLifetime(stream.Texture); lt > 1.6 {
		t.Errorf("texture lifetime = %v, want ~1 for single-use blocks", lt)
	}
}

func TestCounterDBPProtectsLiveStream(t *testing.T) {
	p := NewCounterDBP()
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4, Ways: 4, BlockSize: 64}, p)
	// Z blocks 0..2 are hot (many touches); texture blocks stream.
	for rep := 0; rep < 50; rep++ {
		for z := 0; z < 3; z++ {
			c.Access(stream.Access{Addr: uint64(z) * 64, Kind: stream.Z})
		}
		c.Access(stream.Access{Addr: uint64(100+rep) * 64, Kind: stream.Texture})
	}
	// The hot Z blocks should enjoy a high hit rate despite the stream.
	if hr := c.Stats.KindHitRate(stream.Z); hr < 0.8 {
		t.Errorf("hot Z hit rate = %v under dead block prediction", hr)
	}
}

func TestExtraPoliciesFuzz(t *testing.T) {
	mk := []func() cachesim.Policy{
		func() cachesim.Policy { return NewDIP() },
		func() cachesim.Policy { return NewPeLIFO() },
		func() cachesim.Policy { return NewCounterDBP() },
	}
	f := func(addrs []uint16, kinds []byte) bool {
		for _, m := range mk {
			c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 16, Ways: 4, BlockSize: 64}, m())
			for i, ad := range addrs {
				k := stream.Other
				if i < len(kinds) {
					k = stream.Kind(kinds[i] % byte(stream.NumKinds))
				}
				c.Access(stream.Access{Addr: uint64(ad) * 32, Kind: k, Write: i%5 == 0})
			}
			if c.Stats.Accesses != c.Stats.Hits+c.Stats.Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExtraPolicyNames(t *testing.T) {
	if NewDIP().Name() != "DIP" || NewPeLIFO().Name() != "peLIFO" || NewCounterDBP().Name() != "CounterDBP" {
		t.Error("policy names wrong")
	}
}

func TestHawkeyeLearnsStreams(t *testing.T) {
	p := NewHawkeye()
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 64, Ways: 4, BlockSize: 64}, p)
	// Z blocks loop tightly (cache friendly); texture blocks stream
	// (averse). Drive through set 0 (a sampled set).
	for rep := 0; rep < 3000; rep++ {
		c.Access(stream.Access{Addr: uint64(rep%3) * 64 * 64, Kind: stream.Z})
		c.Access(stream.Access{Addr: uint64(1000+rep) * 64 * 64, Kind: stream.Texture})
	}
	if !p.Friendly(stream.Z) {
		t.Error("looping Z stream should be OPT-friendly")
	}
	if p.Friendly(stream.Texture) {
		t.Error("streaming texture should be OPT-averse")
	}
}

func TestHawkeyeInsertionFollowsPrediction(t *testing.T) {
	p := NewHawkeye()
	p.Reset(64, 4)
	// Untrained: counters at zero => friendly => protected insert.
	p.Fill(1, 0, stream.Access{Kind: stream.Z})
	if p.RRPV(1, 0) != 0 {
		t.Errorf("friendly fill RRPV = %d, want 0", p.RRPV(1, 0))
	}
}

func TestHawkeyeFuzz(t *testing.T) {
	f := func(addrs []uint16, kinds []byte) bool {
		c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 32, Ways: 4, BlockSize: 64}, NewHawkeye())
		for i, ad := range addrs {
			k := stream.Other
			if i < len(kinds) {
				k = stream.Kind(kinds[i] % byte(stream.NumKinds))
			}
			c.Access(stream.Access{Addr: uint64(ad) * 64, Kind: k, Write: i%7 == 0})
		}
		return c.Stats.Accesses == c.Stats.Hits+c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
