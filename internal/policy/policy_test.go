package policy

import (
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

func oneSet(ways int, p cachesim.Policy) *cachesim.Cache {
	return cachesim.New(cachesim.Geometry{SizeBytes: 64 * ways, Ways: ways, BlockSize: 64}, p)
}

// blockAddr maps block number i of set 0 in a single-set cache.
func blockAddr(i int) uint64 { return uint64(i) * 64 }

func TestLRUStackOrder(t *testing.T) {
	p := NewLRU()
	c := oneSet(4, p)
	for i := 0; i < 4; i++ {
		c.Access(stream.Access{Addr: blockAddr(i)})
	}
	// Touch 0 so 1 becomes LRU.
	c.Access(stream.Access{Addr: blockAddr(0)})
	c.Access(stream.Access{Addr: blockAddr(4)}) // evicts 1
	if _, _, ok := c.Lookup(blockAddr(1)); ok {
		t.Error("LRU should have evicted block 1")
	}
	for _, b := range []int{0, 2, 3, 4} {
		if _, _, ok := c.Lookup(blockAddr(b)); !ok {
			t.Errorf("block %d should be resident", b)
		}
	}
}

func TestLRUStackPosition(t *testing.T) {
	p := NewLRU()
	c := oneSet(4, p)
	for i := 0; i < 4; i++ {
		c.Access(stream.Access{Addr: blockAddr(i)})
	}
	// Block 3 is MRU.
	_, way, _ := c.Lookup(blockAddr(3))
	if got := p.StackPosition(0, way); got != 0 {
		t.Errorf("block 3 stack position = %d, want 0 (MRU)", got)
	}
	_, way, _ = c.Lookup(blockAddr(0))
	if got := p.StackPosition(0, way); got != 3 {
		t.Errorf("block 0 stack position = %d, want 3 (LRU)", got)
	}
}

// The LRU stack inclusion property: a hit in a k-way LRU cache implies a
// hit in any larger-associativity LRU cache on the same trace.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		small := oneSet(4, NewLRU())
		big := oneSet(8, NewLRU())
		for _, ad := range addrs {
			a := stream.Access{Addr: uint64(ad%32) * 64}
			hs := small.Access(a)
			hb := big.Access(a)
			if hs && !hb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNRUVictimPrefersLowWay(t *testing.T) {
	p := NewNRU()
	c := oneSet(4, p)
	for i := 0; i < 3; i++ {
		c.Access(stream.Access{Addr: blockAddr(i)})
	}
	// Fill way 3; all four referenced -> mark clears others.
	c.Access(stream.Access{Addr: blockAddr(3)})
	// Now ways 0..2 have ref=false, way 3 ref=true. Victim = way 0.
	c.Access(stream.Access{Addr: blockAddr(4)})
	if _, _, ok := c.Lookup(blockAddr(0)); ok {
		t.Error("NRU should have victimized way 0 (block 0)")
	}
	if _, _, ok := c.Lookup(blockAddr(3)); !ok {
		t.Error("recently filled block 3 must survive")
	}
}

func TestNRUHitProtects(t *testing.T) {
	p := NewNRU()
	c := oneSet(2, p)
	c.Access(stream.Access{Addr: blockAddr(0)})
	c.Access(stream.Access{Addr: blockAddr(1)}) // saturation clears block 0's bit
	c.Access(stream.Access{Addr: blockAddr(0)}) // hit: re-mark 0, clears 1
	c.Access(stream.Access{Addr: blockAddr(2)}) // must evict 1
	if _, _, ok := c.Lookup(blockAddr(0)); !ok {
		t.Error("recently hit block was evicted")
	}
}

func TestSRRIPInsertionAndPromotion(t *testing.T) {
	p := NewSRRIP(2)
	c := oneSet(4, p)
	c.Access(stream.Access{Addr: blockAddr(0)})
	_, w, _ := c.Lookup(blockAddr(0))
	if got := p.RRPV(0, w); got != 2 {
		t.Errorf("insertion RRPV = %d, want 2", got)
	}
	c.Access(stream.Access{Addr: blockAddr(0)})
	if got := p.RRPV(0, w); got != 0 {
		t.Errorf("post-hit RRPV = %d, want 0", got)
	}
	if p.MaxRRPV() != 3 {
		t.Errorf("MaxRRPV = %d", p.MaxRRPV())
	}
}

func TestSRRIPVictimAgingAndTieBreak(t *testing.T) {
	p := NewSRRIP(2)
	c := oneSet(2, p)
	c.Access(stream.Access{Addr: blockAddr(0)})
	c.Access(stream.Access{Addr: blockAddr(1)})
	// Both at RRPV 2; aging brings both to 3; tie broken toward way 0.
	c.Access(stream.Access{Addr: blockAddr(2)})
	if _, _, ok := c.Lookup(blockAddr(0)); ok {
		t.Error("tie break should evict the minimum way id (block 0)")
	}
	if _, _, ok := c.Lookup(blockAddr(1)); !ok {
		t.Error("block 1 should survive the tie break")
	}
}

func TestSRRIPWidth4(t *testing.T) {
	p := NewSRRIP(4)
	c := oneSet(2, p)
	c.Access(stream.Access{Addr: blockAddr(0)})
	_, w, _ := c.Lookup(blockAddr(0))
	if got := p.RRPV(0, w); got != 14 {
		t.Errorf("4-bit insertion RRPV = %d, want 14", got)
	}
}

func TestRRIPWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for rrip width 0")
		}
	}()
	NewSRRIP(0)
}

// TestBRRIPMostlyDistant: DRRIP's BRRIP leader set inserts with the
// distant RRPV except for one fill in every bipEpsilon.
func TestBRRIPMostlyDistant(t *testing.T) {
	p := NewDRRIP(2)
	p.Reset(64, 8)
	distant, long := 0, 0
	for i := 0; i < bipEpsilon*4; i++ {
		p.Fill(33, i%8, stream.Access{Kind: stream.Z})
		if p.RRPV(33, i%8) == 3 {
			distant++
		} else {
			long++
		}
	}
	if long != 4 {
		t.Errorf("long insertions = %d, want exactly 4 in %d fills", long, bipEpsilon*4)
	}
	if distant != bipEpsilon*4-4 {
		t.Errorf("distant insertions = %d", distant)
	}
}

func TestDRRIPLeaderAssignment(t *testing.T) {
	if drripLeader(0) != leaderSRRIP {
		t.Error("set 0 should lead SRRIP")
	}
	if drripLeader(33) != leaderBRRIP {
		t.Error("set 33 should lead BRRIP")
	}
	if drripLeader(7) != leaderNone {
		t.Error("set 7 should follow")
	}
	if drripLeader(64) != leaderSRRIP || drripLeader(97) != leaderBRRIP {
		t.Error("leader pattern must repeat every 64 sets")
	}
}

func TestDRRIPPSELMovesOnLeaderMisses(t *testing.T) {
	p := NewDRRIP(2)
	p.Reset(128, 4)
	start := p.PSEL()
	// Misses (fills) in the SRRIP leader set increment PSEL.
	p.Fill(0, 0, stream.Access{})
	if p.PSEL() != start+1 {
		t.Errorf("PSEL after SRRIP-leader miss = %d, want %d", p.PSEL(), start+1)
	}
	p.Fill(33, 0, stream.Access{})
	p.Fill(33, 1, stream.Access{})
	if p.PSEL() != start-1 {
		t.Errorf("PSEL after two BRRIP-leader misses = %d, want %d", p.PSEL(), start-1)
	}
}

func TestDRRIPFollowersFollowWinner(t *testing.T) {
	p := NewDRRIP(2)
	p.Reset(128, 4)
	// Drive PSEL low: BRRIP leaders miss a lot -> SRRIP wins.
	for i := 0; i < 100; i++ {
		p.Fill(33, i%4, stream.Access{})
	}
	p.Fill(5, 0, stream.Access{}) // follower fill
	if p.RRPV(5, 0) != 2 {
		t.Errorf("follower should insert SRRIP-style (2), got %d", p.RRPV(5, 0))
	}
	// Now drive PSEL high.
	for i := 0; i < 1200; i++ {
		p.Fill(0, i%4, stream.Access{})
	}
	p.Fill(5, 1, stream.Access{})
	if p.RRPV(5, 1) == 2 {
		t.Error("follower should now insert BRRIP-style (mostly 3)")
	}
}

func TestDRRIPFillAccounting(t *testing.T) {
	p := NewDRRIP(2)
	c := oneSet(4, p)
	c.Access(stream.Access{Addr: blockAddr(0), Kind: stream.Texture})
	c.Access(stream.Access{Addr: blockAddr(1), Kind: stream.RT})
	if p.FillsByKind[stream.Texture] != 1 || p.FillsByKind[stream.RT] != 1 {
		t.Errorf("fill accounting: %+v", p.FillsByKind)
	}
}

func TestGroupOf(t *testing.T) {
	cases := map[stream.Kind]StreamGroup{
		stream.Z:       GroupZ,
		stream.Texture: GroupTexture,
		stream.RT:      GroupRT,
		stream.Display: GroupRT,
		stream.Vertex:  GroupOther,
		stream.HiZ:     GroupOther,
		stream.Stencil: GroupOther,
		stream.Other:   GroupOther,
	}
	for k, want := range cases {
		if got := GroupOf(k); got != want {
			t.Errorf("GroupOf(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestStreamGroupString(t *testing.T) {
	names := map[StreamGroup]string{GroupZ: "Z", GroupTexture: "TEX", GroupRT: "RT", GroupOther: "OTHER"}
	for g, want := range names {
		if g.String() != want {
			t.Errorf("group %d name %q, want %q", g, g.String(), want)
		}
	}
}

func TestGSDRRIPLeaderSets(t *testing.T) {
	// Residues 0..7 lead for groups 0..3, alternating teams.
	for r := 0; r < 8; r++ {
		g, team := gsLeader(r)
		if g != StreamGroup(r/2) {
			t.Errorf("set %d leads group %v, want %v", r, g, StreamGroup(r/2))
		}
		wantTeam := leaderSRRIP + r%2
		if team != wantTeam {
			t.Errorf("set %d team = %d, want %d", r, team, wantTeam)
		}
	}
	if _, team := gsLeader(9); team != leaderNone {
		t.Error("set 9 should follow")
	}
}

func TestGSDRRIPPerStreamDuel(t *testing.T) {
	p := NewGSDRRIP(2)
	p.Reset(128, 4)
	// Z leader sets are 0 (SRRIP) and 1 (BRRIP): make BRRIP lose for Z.
	for i := 0; i < 200; i++ {
		p.Fill(1, i%4, stream.Access{Kind: stream.Z})
	}
	// Texture leaders are 2 and 3: make SRRIP lose for texture.
	for i := 0; i < 1200; i++ {
		p.Fill(2, i%4, stream.Access{Kind: stream.Texture})
	}
	// Followers: Z inserts at 2, texture mostly at 3.
	p.Fill(20, 0, stream.Access{Kind: stream.Z})
	if p.RRPV(20, 0) != 2 {
		t.Errorf("Z follower insert = %d, want 2", p.RRPV(20, 0))
	}
	p.Fill(20, 1, stream.Access{Kind: stream.Texture})
	if p.RRPV(20, 1) != 3 {
		t.Errorf("texture follower insert = %d, want 3", p.RRPV(20, 1))
	}
	if p.PSELFor(GroupZ) >= 1<<(pselBits-1) {
		t.Error("Z PSEL should favor SRRIP")
	}
	if p.PSELFor(GroupTexture) < 1<<(pselBits-1) {
		t.Error("texture PSEL should favor BRRIP")
	}
}

func TestSHiPLearnsDeadRegion(t *testing.T) {
	p := NewSHiPMem(1)
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 2 * 4, Ways: 2, BlockSize: 64}, p)
	// Stream through many blocks of one region with no reuse: the region
	// counter decays to zero and fills become distant.
	for i := 0; i < 64; i++ {
		c.Access(stream.Access{Addr: uint64(i) * 64})
	}
	set, way, ok := c.Lookup(uint64(63) * 64)
	if !ok {
		t.Fatal("last block missing")
	}
	if got := p.RRPV(set, way); got != 3 {
		t.Errorf("dead-region fill RRPV = %d, want 3", got)
	}
	if p.CounterFor(set, 63*64) != 0 {
		t.Errorf("region counter = %d, want 0", p.CounterFor(set, 63*64))
	}
}

func TestSHiPLearnsLiveRegion(t *testing.T) {
	p := NewSHiPMem(1)
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 2 * 4, Ways: 2, BlockSize: 64}, p)
	// Reuse blocks of the region heavily.
	for r := 0; r < 4; r++ {
		for i := 0; i < 4; i++ {
			c.Access(stream.Access{Addr: uint64(i) * 64})
		}
	}
	if p.CounterFor(0, 0) == 0 {
		t.Error("live region counter should be positive")
	}
	c.Access(stream.Access{Addr: 9 * 64})
	set, way, _ := c.Lookup(9 * 64)
	if got := p.RRPV(set, way); got != 2 {
		t.Errorf("live-region fill RRPV = %d, want 2", got)
	}
}

func TestRandomDeterminism(t *testing.T) {
	mk := func() []int {
		p := NewRandom(7)
		p.Reset(4, 8)
		var vs []int
		for i := 0; i < 50; i++ {
			vs = append(vs, p.Victim(i%4, stream.Access{}))
		}
		return vs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not reproducible")
		}
	}
}

func TestRandomVictimInRange(t *testing.T) {
	p := NewRandom(0)
	p.Reset(1, 16)
	for i := 0; i < 1000; i++ {
		if v := p.Victim(0, stream.Access{}); v < 0 || v >= 16 {
			t.Fatalf("victim %d out of range", v)
		}
	}
}

// Property: every policy returns victims within range and keeps the cache
// functional on arbitrary access sequences.
func TestPoliciesFuzz(t *testing.T) {
	mkPolicies := func() []cachesim.Policy {
		return []cachesim.Policy{
			NewLRU(), NewNRU(), NewRandom(3), NewSRRIP(2),
			NewDRRIP(2), NewDRRIP(4), NewGSDRRIP(2), NewSHiPMem(2),
		}
	}
	f := func(addrs []uint16, kinds []byte) bool {
		for _, p := range mkPolicies() {
			c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 8, Ways: 4, BlockSize: 64}, p)
			for i, ad := range addrs {
				k := stream.Other
				if i < len(kinds) {
					k = stream.Kind(kinds[i] % byte(stream.NumKinds))
				}
				c.Access(stream.Access{Addr: uint64(ad) * 32, Kind: k, Write: i%3 == 0})
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

// Property: on a scan larger than the cache, repeated twice, SRRIP and
// friends never hit more than the number of blocks that fit; sanity that
// thrash behavior is bounded.
func TestScanBehavior(t *testing.T) {
	for _, p := range []cachesim.Policy{NewSRRIP(2), NewDRRIP(2), NewLRU(), NewNRU()} {
		c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 16, Ways: 16, BlockSize: 64}, p)
		const n = 64
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < n; i++ {
				c.Access(stream.Access{Addr: uint64(i) * 64})
			}
		}
		if c.Stats.Hits > 16 {
			t.Errorf("%s: %d hits on a thrash scan, capacity is 16", p.Name(), c.Stats.Hits)
		}
	}
}
