package core

import (
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// newTestPolicy returns a policy with 128 sets x 4 ways. Sample sets in
// this geometry are 0 and 65; bank 0 covers sets 0..31.
func newTestPolicy(v Variant) *Policy {
	g := New(DefaultParams(v))
	g.Reset(128, 4)
	return g
}

const (
	sampleSet    = 0 // bank 0
	nonSampleSet = 5 // bank 0
)

func texAcc() stream.Access { return stream.Access{Kind: stream.Texture} }
func zAcc() stream.Access   { return stream.Access{Kind: stream.Z} }
func rtAcc() stream.Access  { return stream.Access{Kind: stream.RT} }

func TestSampleDensity(t *testing.T) {
	g := New(DefaultParams(VariantGSPC))
	g.Reset(8192, 16)
	count := 0
	for s := 0; s < 8192; s++ {
		if g.IsSample(s) {
			count++
		}
	}
	if count != 128 {
		t.Errorf("sample sets in 8192 = %d, want 128 (16 per 1024)", count)
	}
	// And per 1024-set window.
	for w := 0; w < 8; w++ {
		n := 0
		for s := w * 1024; s < (w+1)*1024; s++ {
			if g.IsSample(s) {
				n++
			}
		}
		if n != 16 {
			t.Errorf("window %d has %d samples, want 16", w, n)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if VariantGSPZTC.String() != "GSPZTC" ||
		VariantGSPZTCTSE.String() != "GSPZTC+TSE" ||
		VariantGSPC.String() != "GSPC" {
		t.Error("variant names wrong")
	}
	g := New(Params{Variant: VariantGSPC, T: 4})
	if g.Name() != "GSPC(t=4)" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestDefaultParamsApplied(t *testing.T) {
	g := New(Params{Variant: VariantGSPC})
	p := g.Params()
	if p.T != 8 || p.Banks != 4 || p.ProdConsHi != 16 || p.ProdConsLo != 8 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// Table 3 (sample sets): fills insert at RRPV 2 and bump stream counters.
func TestSampleFillActions(t *testing.T) {
	g := newTestPolicy(VariantGSPC)

	g.Fill(sampleSet, 0, zAcc())
	if g.RRPV(sampleSet, 0) != 2 {
		t.Errorf("sample Z fill RRPV = %d, want 2 (SRRIP)", g.RRPV(sampleSet, 0))
	}
	if c := g.CountersFor(sampleSet); c.FillZ != 1 || c.Acc != 1 {
		t.Errorf("counters after Z fill: %+v", c)
	}

	g.Fill(sampleSet, 1, texAcc())
	if g.StateOf(sampleSet, 1) != StateE0 {
		t.Error("texture fill must enter state 00")
	}
	if c := g.CountersFor(sampleSet); c.FillE[0] != 1 {
		t.Errorf("FILL(0) = %d after texture fill", c.FillE[0])
	}

	g.Fill(sampleSet, 2, rtAcc())
	if g.StateOf(sampleSet, 2) != StateRT {
		t.Error("RT fill must enter state 11")
	}
	if c := g.CountersFor(sampleSet); c.Prod != 1 {
		t.Errorf("PROD = %d after RT fill", c.Prod)
	}
}

// Table 4 (sample sets): the texture epoch counter protocol.
func TestSampleTextureEpochProtocol(t *testing.T) {
	g := newTestPolicy(VariantGSPC)

	// RT fill then texture hit: consumption. FILL(0)++ and CONS++.
	g.Fill(sampleSet, 0, rtAcc())
	g.Hit(sampleSet, 0, texAcc())
	c := g.CountersFor(sampleSet)
	if c.FillE[0] != 1 || c.Cons != 1 {
		t.Errorf("after RT->TEX: FILL(0)=%d CONS=%d", c.FillE[0], c.Cons)
	}
	if g.StateOf(sampleSet, 0) != StateE0 {
		t.Error("consumed RT must enter E0")
	}
	if g.RRPV(sampleSet, 0) != 0 {
		t.Error("sample hit must promote to RRPV 0 (SRRIP)")
	}

	// E0 -> E1: HIT(0)++ and FILL(1)++.
	g.Hit(sampleSet, 0, texAcc())
	c = g.CountersFor(sampleSet)
	if c.HitE[0] != 1 || c.FillE[1] != 1 {
		t.Errorf("after E0 hit: HIT(0)=%d FILL(1)=%d", c.HitE[0], c.FillE[1])
	}
	if g.StateOf(sampleSet, 0) != StateE1 {
		t.Error("block must advance to E1")
	}

	// E1 -> E2: HIT(1)++.
	g.Hit(sampleSet, 0, texAcc())
	c = g.CountersFor(sampleSet)
	if c.HitE[1] != 1 {
		t.Errorf("HIT(1) = %d", c.HitE[1])
	}
	if g.StateOf(sampleSet, 0) != StateE2 {
		t.Error("block must advance to E2")
	}

	// E2 stays E2; no further counters.
	g.Hit(sampleSet, 0, texAcc())
	if g.StateOf(sampleSet, 0) != StateE2 {
		t.Error("E2 must be absorbing for texture hits")
	}
	c2 := g.CountersFor(sampleSet)
	if c2.HitE[0] != c.HitE[0] || c2.HitE[1] != c.HitE[1] {
		t.Error("E>=2 hits must not move epoch counters")
	}
}

// Plain GSPZTC tracks only the aggregate texture reuse: an E0 hit counts
// HIT(TEX) but does not advance epochs.
func TestGSPZTCNoEpochs(t *testing.T) {
	g := newTestPolicy(VariantGSPZTC)
	g.Fill(sampleSet, 0, texAcc())
	g.Hit(sampleSet, 0, texAcc())
	c := g.CountersFor(sampleSet)
	if c.HitE[0] != 1 {
		t.Errorf("HIT(TEX) = %d", c.HitE[0])
	}
	if c.FillE[1] != 0 {
		t.Error("GSPZTC must not track epoch 1 fills")
	}
	if g.StateOf(sampleSet, 0) != StateE0 {
		t.Error("GSPZTC blocks stay in E0 on texture hits")
	}
}

// GSPZTC and GSPZTC+TSE do not maintain PROD/CONS.
func TestProdConsOnlyInGSPC(t *testing.T) {
	for _, v := range []Variant{VariantGSPZTC, VariantGSPZTCTSE} {
		g := newTestPolicy(v)
		g.Fill(sampleSet, 0, rtAcc())
		g.Hit(sampleSet, 0, texAcc())
		c := g.CountersFor(sampleSet)
		if c.Prod != 0 || c.Cons != 0 {
			t.Errorf("%v tracks PROD/CONS: %+v", v, c)
		}
	}
}

// Table 3 (non-samples): Z insertion follows the learned probability.
func TestNonSampleZFill(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	// No learning yet: FILL(Z)=0 -> 0 > t*0 is false -> long (RRPV 2).
	g.Fill(nonSampleSet, 0, zAcc())
	if g.RRPV(nonSampleSet, 0) != 2 {
		t.Errorf("Z fill with no evidence RRPV = %d, want 2", g.RRPV(nonSampleSet, 0))
	}
	// Teach: many Z fills in samples, no hits -> dead -> distant.
	for i := 0; i < 20; i++ {
		g.Fill(sampleSet, i%4, zAcc())
	}
	g.Fill(nonSampleSet, 1, zAcc())
	if g.RRPV(nonSampleSet, 1) != 3 {
		t.Errorf("dead-Z fill RRPV = %d, want 3", g.RRPV(nonSampleSet, 1))
	}
	// Now record hits so that FILL <= t*HIT.
	for i := 0; i < 4; i++ {
		g.Hit(sampleSet, 0, zAcc())
	}
	g.Fill(nonSampleSet, 2, zAcc())
	if g.RRPV(nonSampleSet, 2) != 2 {
		t.Errorf("live-Z fill RRPV = %d, want 2", g.RRPV(nonSampleSet, 2))
	}
}

// Table 3/4 (non-samples): texture insertion is 3 (dead) or 0 (live) —
// never 2, which the paper found to hurt.
func TestNonSampleTexFill(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	for i := 0; i < 20; i++ {
		g.Fill(sampleSet, i%4, texAcc())
	}
	g.Fill(nonSampleSet, 0, texAcc())
	if g.RRPV(nonSampleSet, 0) != 3 {
		t.Errorf("dead-texture fill RRPV = %d, want 3", g.RRPV(nonSampleSet, 0))
	}
	// Lots of E0 hits: reuse probability above 1/(t+1) -> protect at 0.
	g2 := newTestPolicy(VariantGSPC)
	g2.Fill(sampleSet, 0, texAcc())
	for i := 0; i < 8; i++ {
		g2.Fill(sampleSet, 1, texAcc())
		g2.Hit(sampleSet, 1, texAcc()) // E0 hit each time
	}
	g2.Fill(nonSampleSet, 0, texAcc())
	if g2.RRPV(nonSampleSet, 0) != 0 {
		t.Errorf("live-texture fill RRPV = %d, want 0", g2.RRPV(nonSampleSet, 0))
	}
}

// Tables 3 and 5 (non-samples): render target insertion. Static variants
// always protect; GSPC follows PROD/CONS bands.
func TestNonSampleRTFill(t *testing.T) {
	for _, v := range []Variant{VariantGSPZTC, VariantGSPZTCTSE} {
		g := newTestPolicy(v)
		g.Fill(nonSampleSet, 0, rtAcc())
		if g.RRPV(nonSampleSet, 0) != 0 {
			t.Errorf("%v RT fill RRPV = %d, want 0", v, g.RRPV(nonSampleSet, 0))
		}
		if g.StateOf(nonSampleSet, 0) != StateRT {
			t.Errorf("%v RT fill state != 11", v)
		}
	}

	// GSPC band 1: PROD > 16*CONS -> distant.
	g := newTestPolicy(VariantGSPC)
	for i := 0; i < 20; i++ {
		g.Fill(sampleSet, i%4, rtAcc()) // PROD=20, CONS=0
	}
	g.Fill(nonSampleSet, 0, rtAcc())
	if g.RRPV(nonSampleSet, 0) != 3 {
		t.Errorf("unconsumed-RT fill RRPV = %d, want 3", g.RRPV(nonSampleSet, 0))
	}

	// Band 2: 8*CONS < PROD <= 16*CONS -> long (2).
	g2 := newTestPolicy(VariantGSPC)
	for i := 0; i < 12; i++ {
		g2.Fill(sampleSet, 0, rtAcc())
	}
	g2.Fill(sampleSet, 1, rtAcc())
	g2.Hit(sampleSet, 1, texAcc()) // PROD=13, CONS=1 -> 13 in (8, 16]
	g2.Fill(nonSampleSet, 0, rtAcc())
	if g2.RRPV(nonSampleSet, 0) != 2 {
		t.Errorf("band-2 RT fill RRPV = %d, want 2", g2.RRPV(nonSampleSet, 0))
	}

	// Band 3: PROD <= 8*CONS -> full protection (0).
	g3 := newTestPolicy(VariantGSPC)
	for i := 0; i < 4; i++ {
		g3.Fill(sampleSet, 0, rtAcc())
		g3.Hit(sampleSet, 0, texAcc()) // PROD=4, CONS=4
	}
	g3.Fill(nonSampleSet, 0, rtAcc())
	if g3.RRPV(nonSampleSet, 0) != 0 {
		t.Errorf("consumed-RT fill RRPV = %d, want 0", g3.RRPV(nonSampleSet, 0))
	}
}

// Table 4 (non-samples): the texture hit ladder RRPVs.
func TestNonSampleTexHitLadder(t *testing.T) {
	g := newTestPolicy(VariantGSPZTCTSE)
	// Teach that E0 is dead and E1 is dead.
	for i := 0; i < 20; i++ {
		g.Fill(sampleSet, i%4, texAcc())
	}
	// RT->TEX consumption on a non-sample: state 11 -> 00, RRPV via E0.
	g.Fill(nonSampleSet, 0, rtAcc())
	g.Hit(nonSampleSet, 0, texAcc())
	if g.StateOf(nonSampleSet, 0) != StateE0 {
		t.Error("consumed RT must enter E0")
	}
	if g.RRPV(nonSampleSet, 0) != 3 {
		t.Errorf("dead-E0 consumption RRPV = %d, want 3", g.RRPV(nonSampleSet, 0))
	}
	// E0 -> E1 hit: uses FILL(1)/HIT(1); with FILL(1)=0 the test
	// 0 > t*0 fails -> RRPV 0.
	g.Hit(nonSampleSet, 0, texAcc())
	if g.StateOf(nonSampleSet, 0) != StateE1 || g.RRPV(nonSampleSet, 0) != 0 {
		t.Errorf("E0 hit: state=%d rrpv=%d", g.StateOf(nonSampleSet, 0), g.RRPV(nonSampleSet, 0))
	}
	// E1 -> E2 hit: always RRPV 0.
	g.Hit(nonSampleSet, 0, texAcc())
	if g.StateOf(nonSampleSet, 0) != StateE2 || g.RRPV(nonSampleSet, 0) != 0 {
		t.Errorf("E1 hit: state=%d rrpv=%d", g.StateOf(nonSampleSet, 0), g.RRPV(nonSampleSet, 0))
	}
}

// RT hit on a block in any state re-marks it as a render target with full
// protection (render target object reuse).
func TestRTObjectReuse(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	g.Fill(nonSampleSet, 0, texAcc())
	g.Hit(nonSampleSet, 0, rtAcc())
	if g.StateOf(nonSampleSet, 0) != StateRT {
		t.Error("RT hit must set state 11")
	}
	if g.RRPV(nonSampleSet, 0) != 0 {
		t.Error("RT hit must protect at RRPV 0")
	}
}

// Display accesses are render targets from the policy's viewpoint.
func TestDisplayIsRT(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	g.Fill(sampleSet, 0, stream.Access{Kind: stream.Display})
	if g.StateOf(sampleSet, 0) != StateRT {
		t.Error("display fill must be treated as a render target")
	}
	if c := g.CountersFor(sampleSet); c.Prod != 1 {
		t.Error("display fill must count as production")
	}
}

func TestOtherStreamsDefaultInsertion(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	for _, k := range []stream.Kind{stream.Vertex, stream.HiZ, stream.Stencil, stream.Other} {
		g.Fill(nonSampleSet, 0, stream.Access{Kind: k})
		if g.RRPV(nonSampleSet, 0) != 2 {
			t.Errorf("%v fill RRPV = %d, want 2", k, g.RRPV(nonSampleSet, 0))
		}
		g.Hit(nonSampleSet, 0, stream.Access{Kind: k})
		if g.RRPV(nonSampleSet, 0) != 0 {
			t.Errorf("%v hit RRPV = %d, want 0", k, g.RRPV(nonSampleSet, 0))
		}
	}
}

func TestVictimAgingAndTieBreak(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	for w := 0; w < 4; w++ {
		g.Fill(nonSampleSet, w, zAcc()) // all RRPV 2
	}
	v := g.Victim(nonSampleSet, zAcc())
	if v != 0 {
		t.Errorf("victim = %d, want way 0 (minimum way id tie break)", v)
	}
	if g.RRPV(nonSampleSet, 3) != 3 {
		t.Error("aging must raise all RRPVs to the distant value")
	}
}

func TestEvictResetsState(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	g.Fill(nonSampleSet, 0, rtAcc())
	g.Evict(nonSampleSet, 0)
	if g.StateOf(nonSampleSet, 0) != StateE0 {
		t.Error("eviction must reset the RT/epoch state")
	}
	if g.RRPV(nonSampleSet, 0) != 3 {
		t.Error("eviction must reset RRPV to distant")
	}
}

func TestCounterHalving(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	// 127 sample accesses saturate ACC(ALL); the 128th halves.
	for i := 0; i < 127; i++ {
		g.Fill(sampleSet, i%4, zAcc())
	}
	c := g.CountersFor(sampleSet)
	if c.Acc != 127 || c.FillZ != 127 {
		t.Fatalf("pre-halving counters: %+v", c)
	}
	g.Fill(sampleSet, 0, zAcc())
	c = g.CountersFor(sampleSet)
	if c.Acc != 0 {
		t.Errorf("ACC after halving = %d, want 0", c.Acc)
	}
	if c.FillZ != 64 { // 127>>1 = 63, then +1 for this fill
		t.Errorf("FILL(Z) after halving = %d, want 64", c.FillZ)
	}
}

func TestCounterSaturation(t *testing.T) {
	var c Counters
	for i := 0; i < 300; i++ {
		sat(&c.FillZ)
	}
	if c.FillZ != 255 {
		t.Errorf("counter saturated at %d, want 255", c.FillZ)
	}
}

func TestBanksAreIndependent(t *testing.T) {
	g := newTestPolicy(VariantGSPC) // 128 sets, 4 banks, 32 sets each
	g.Fill(0, 0, zAcc())            // sample of bank 0
	g.Fill(65, 0, zAcc())           // sample of bank 2 (set 65)
	if g.CountersFor(0).FillZ != 1 {
		t.Error("bank 0 counter not updated")
	}
	if g.CountersFor(65).FillZ != 1 {
		t.Error("bank 2 counter not updated")
	}
	if g.CountersFor(33).FillZ != 0 {
		t.Error("bank 1 counter must be untouched")
	}
}

func TestThresholdParameter(t *testing.T) {
	// With t=2 (reuse threshold 1/3), a stream with reuse probability
	// between 1/9 and 1/3 is distant under t=2 but long under t=8.
	mk := func(tv int) *Policy {
		p := DefaultParams(VariantGSPZTC)
		p.T = tv
		g := New(p)
		g.Reset(128, 4)
		return g
	}
	teach := func(g *Policy) {
		// 5 fills, 1 hit: probability 0.2.
		for i := 0; i < 5; i++ {
			g.Fill(sampleSet, i%4, zAcc())
		}
		g.Hit(sampleSet, 0, zAcc())
	}
	g2, g8 := mk(2), mk(8)
	teach(g2)
	teach(g8)
	g2.Fill(nonSampleSet, 0, zAcc())
	g8.Fill(nonSampleSet, 0, zAcc())
	if g2.RRPV(nonSampleSet, 0) != 3 {
		t.Errorf("t=2 Z fill RRPV = %d, want 3", g2.RRPV(nonSampleSet, 0))
	}
	if g8.RRPV(nonSampleSet, 0) != 2 {
		t.Errorf("t=8 Z fill RRPV = %d, want 2", g8.RRPV(nonSampleSet, 0))
	}
}

func TestStorageOverhead(t *testing.T) {
	g := New(DefaultParams(VariantGSPC))
	geom := cachesim.Geometry{SizeBytes: 8 << 20, Ways: 16, BlockSize: 64}
	bits := g.StorageOverheadBits(geom)
	// Two bits per block (32 KB = 262144 bits) + 284 counter bits.
	if bits != 262144+284 {
		t.Errorf("overhead = %d bits, want %d", bits, 262144+284)
	}
	// Under 0.5% of the data array, as the paper claims.
	dataBits := geom.SizeBytes * 8
	if float64(bits)/float64(dataBits) > 0.005 {
		t.Error("overhead exceeds 0.5% of the data array")
	}
}

func TestInsertionStatsCounted(t *testing.T) {
	g := newTestPolicy(VariantGSPC)
	for i := 0; i < 20; i++ {
		g.Fill(sampleSet, i%4, rtAcc())
	}
	g.Fill(nonSampleSet, 0, rtAcc()) // distant band
	g.Fill(nonSampleSet, 1, zAcc())
	g.Fill(nonSampleSet, 2, texAcc())
	in := g.Insertions
	if in.RTDistant != 1 || in.ZLong+in.ZDistant != 1 || in.TexDistant+in.TexZero != 1 {
		t.Errorf("insertion stats: %+v", in)
	}
}

// Integration: the full policy through a cache on a random trace keeps
// every block's state and RRPV within range, and basic stats hold.
func TestPolicyThroughCacheProperty(t *testing.T) {
	f := func(addrs []uint16, kinds []byte) bool {
		for _, v := range []Variant{VariantGSPZTC, VariantGSPZTCTSE, VariantGSPC} {
			g := New(DefaultParams(v))
			c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * 4 * 64, Ways: 4, BlockSize: 64}, g)
			for i, ad := range addrs {
				k := stream.Other
				if i < len(kinds) {
					k = stream.Kind(kinds[i] % byte(stream.NumKinds))
				}
				c.Access(stream.Access{Addr: uint64(ad) * 64, Kind: k, Write: i%4 == 0})
			}
			if c.Stats.Accesses != c.Stats.Hits+c.Stats.Misses {
				return false
			}
			for s := 0; s < c.Sets(); s++ {
				for w := 0; w < c.Ways(); w++ {
					if g.StateOf(s, w) > StateRT || g.RRPV(s, w) > g.MaxRRPV() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// tableSetCounts are the set counts the per-set table tests cover: the
// small ones are what cachesim.NewSampled hands a policy, 276 and 1024
// are scaled and paper-like LLCs.
var tableSetCounts = []int{1, 3, 15, 16, 17, 63, 64, 65, 276, 1024}

// TestSetTablesMatchFormulas pins the per-set sample flag and counter
// bank that Reset precomputes against the formulas they replace:
// set%m == (set/m)%m, and min(set/(sets/banks), banks-1) with bank 0
// when sets < banks. One policy per parameter set is Reset to every
// count in turn, so re-sizing is covered too.
func TestSetTablesMatchFormulas(t *testing.T) {
	for _, p := range []Params{
		DefaultParams(VariantGSPC),
		{Variant: VariantGSPC, SampleEvery: 4, Banks: 3},
		{Variant: VariantGSPZTC, SampleEvery: 7, Banks: 8},
		{Variant: VariantGSPZTCTSE, SampleEvery: 1, Banks: 1},
		{Variant: VariantGSPC, SampleEvery: 16, Banks: 64},
	} {
		g := New(p)
		m, banks := g.Params().SampleEvery, g.Params().Banks
		for _, sets := range tableSetCounts {
			g.Reset(sets, 4)
			for s := 0; s < sets; s++ {
				if got, want := g.IsSample(s), s%m == (s/m)%m; got != want {
					t.Errorf("m=%d sets=%d: IsSample(%d) = %v, want %v", m, sets, s, got, want)
				}
				want := 0
				if per := sets / banks; per > 0 {
					want = min(s/per, banks-1)
				}
				if g.bank(s) != &g.banks[want] {
					t.Errorf("banks=%d sets=%d: set %d not owned by bank %d", banks, sets, s, want)
				}
			}
		}
	}
}
