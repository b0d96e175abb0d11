// Package core implements the paper's contribution: graphics stream-aware
// probabilistic caching for GPU last-level caches. Three increasingly
// capable policies are provided (Section 3):
//
//   - GSPZTC: probabilistic insertion for the Z and texture streams based
//     on reuse probabilities learned in SRRIP sample sets (Table 3).
//   - GSPZTC+TSE: adds texture sampler epochs — per-epoch reuse
//     probabilities for E0 and E1 texture blocks tracked with two state
//     bits per block (Table 4, Figure 10).
//   - GSPC: adds dynamic render-target management driven by the observed
//     render-target-to-texture consumption probability (Table 5).
//
// All three dedicate 16 of every 1024 LLC sets as samples that always run
// two-bit SRRIP; small reuse probabilities measured there are amplified in
// the remaining sets by modulating insertion RRPVs.
package core

import (
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

// Variant selects which member of the policy family to run.
type Variant uint8

// The policy family members, in order of increasing capability.
const (
	VariantGSPZTC Variant = iota
	VariantGSPZTCTSE
	VariantGSPC
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case VariantGSPZTC:
		return "GSPZTC"
	case VariantGSPZTCTSE:
		return "GSPZTC+TSE"
	case VariantGSPC:
		return "GSPC"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Block states, two bits per LLC block (Figure 10). States E0/E1/E2 track
// the texture sampler epochs; state RT identifies a render target block
// (replacing the separate RT bit of the rudimentary GSPZTC design).
const (
	StateE0 uint8 = 0 // texture epoch 0 (also the neutral state)
	StateE1 uint8 = 1 // texture epoch 1
	StateE2 uint8 = 2 // texture epoch >= 2
	StateRT uint8 = 3 // render target block
)

// Params configures the policy family.
type Params struct {
	// Variant selects GSPZTC, GSPZTC+TSE, or full GSPC.
	Variant Variant
	// T is the reuse probability threshold multiplier: a stream (or
	// texture epoch) is inserted with a distant RRPV when
	// FILL > T*HIT, i.e. when its sampled reuse probability is below
	// 1/(T+1). The paper fixes T=8 (Figure 11). Power-of-two values keep
	// the hardware a shift and compare.
	T int
	// Banks is the number of LLC banks, each owning one counter block.
	// The paper's 8 MB LLC has four 2 MB banks.
	Banks int
	// ProdConsHi and ProdConsLo are the render-target consumption
	// thresholds of the GSPC variant: insertion RRPV is distant when
	// PROD > Hi*CONS (consumption probability < 1/Hi), long when
	// PROD > Lo*CONS, and zero otherwise. The paper uses 16 and 8.
	ProdConsHi, ProdConsLo int
	// SampleEvery controls the sample set density: one sample per
	// SampleEvery sets (the paper's 16 per 1024 corresponds to 64).
	// Exposed for the sample-density ablation.
	SampleEvery int
}

// DefaultParams returns the paper's configuration for a variant.
func DefaultParams(v Variant) Params {
	return Params{
		Variant:     v,
		T:           8,
		Banks:       4,
		ProdConsHi:  16,
		ProdConsLo:  8,
		SampleEvery: 64,
	}
}

// Counters is the per-bank saturating counter block (Section 3): two
// counters for the Z stream, four for the texture sampler epochs, two for
// render-target production/consumption, and the 7-bit ACC(ALL) whose
// saturation halves everything. All counters are 8-bit saturating.
type Counters struct {
	FillZ, HitZ uint8
	// FillE and HitE index by texture epoch (0 or 1). The plain GSPZTC
	// variant uses only index 0 as its aggregate FILL(TEX)/HIT(TEX).
	FillE, HitE [2]uint8
	Prod, Cons  uint8
	Acc         uint8
}

const (
	counterMax = 255
	accMax     = 127 // 7-bit ACC(ALL)
)

func sat(c *uint8) {
	if *c < counterMax {
		*c++
	}
}

// bump increments ACC(ALL) and halves every reuse counter when it
// saturates, keeping the probabilities adaptive to phase changes.
func (c *Counters) bump() {
	if c.Acc < accMax {
		c.Acc++
		return
	}
	c.FillZ >>= 1
	c.HitZ >>= 1
	for i := range c.FillE {
		c.FillE[i] >>= 1
		c.HitE[i] >>= 1
	}
	c.Prod >>= 1
	c.Cons >>= 1
	c.Acc = 0
}

// The paper fixes GSPC at two-bit RRPVs: fills insert at the distant
// RRPV, the long one or zero.
const (
	rripBits    = 2
	distantRRPV = 1<<rripBits - 1
	longRRPV    = distantRRPV - 1
)

// Policy is the GSPC family replacement policy. It satisfies
// cachesim.Policy. It embeds the RRIP state every RRIP policy shares, so
// sample and non-sample sets alike pick victims with the standard RRIP
// scan, and adds two state bits per block and one Counters block per
// LLC bank.
type Policy struct {
	policy.RRIP
	p    Params
	ways int

	state []uint8
	banks []Counters
	// sample and bankOf are the per-set sample flag and owning counter
	// block, computed once in Reset so Hit and Fill divide nothing.
	sample []bool
	bankOf []int32

	// Insertions counts non-sample fill decisions; exported for
	// gspcdiag, examples/tuning and tests (a Fig. 8 analogue for GSPC).
	Insertions InsertionStats
}

// InsertionStats tallies the insertion RRPVs chosen for non-sample fills
// of each managed stream class.
type InsertionStats struct {
	ZDistant, ZLong     int64
	TexDistant, TexZero int64
	RTDistant, RTLong   int64
	RTZero              int64
}

var _ cachesim.Policy = (*Policy)(nil)

// New returns a policy of the family with the given parameters. Zero or
// negative parameter fields are replaced by the paper defaults.
func New(p Params) *Policy {
	d := DefaultParams(p.Variant)
	if p.T <= 0 {
		p.T = d.T
	}
	if p.Banks <= 0 {
		p.Banks = d.Banks
	}
	if p.ProdConsHi <= 0 {
		p.ProdConsHi = d.ProdConsHi
	}
	if p.ProdConsLo <= 0 {
		p.ProdConsLo = d.ProdConsLo
	}
	if p.SampleEvery <= 0 {
		p.SampleEvery = d.SampleEvery
	}
	return &Policy{RRIP: policy.NewRRIP(rripBits), p: p}
}

// Name implements cachesim.Policy.
func (g *Policy) Name() string {
	if g.p.T != 8 {
		return fmt.Sprintf("%s(t=%d)", g.p.Variant, g.p.T)
	}
	return g.p.Variant.String()
}

// Params returns the active parameters.
func (g *Policy) Params() Params { return g.p }

// Reset implements cachesim.Policy.
func (g *Policy) Reset(sets, ways int) {
	g.RRIP.Reset(sets, ways)
	g.ways = ways
	g.state = make([]uint8, sets*ways)
	g.banks = make([]Counters, g.p.Banks)
	g.Insertions = InsertionStats{}
	g.bankOf = policy.BankOf(sets, g.p.Banks)
	g.sample = make([]bool, sets)
	m := g.p.SampleEvery
	for s := range g.sample {
		g.sample[s] = s%m == (s/m)%m
	}
}

// IsSample reports whether a set in [0, sets) is one of the dedicated
// sample sets: one in every SampleEvery sets (16 per 1024 at the
// paper's default of 64), selected by a simple Boolean function of the
// index bits (set mod m == (set div m) mod m).
func (g *Policy) IsSample(set int) bool { return g.sample[set] }

func (g *Policy) bank(set int) *Counters { return &g.banks[g.bankOf[set]] }

// CountersFor exposes the counter block owning a set, for tests.
func (g *Policy) CountersFor(set int) Counters { return *g.bank(set) }

// StateOf exposes a block's two state bits, for tests and analysis.
func (g *Policy) StateOf(set, way int) uint8 { return g.state[set*g.ways+way] }

// isRTKind reports whether the access belongs to the render target stream
// from the policy's viewpoint. Displayable color is a render target
// (Section 5.1); GSPC cannot distinguish it without the UCD hint, which is
// exactly why uncaching the display stream helps GSPC in Figure 12.
func isRTKind(k stream.Kind) bool { return k == stream.RT || k == stream.Display }

// distant reports whether fills of a stream with the given sampled fill
// and hit counts should be inserted with the distant RRPV, i.e. whether
// the observed reuse probability is below 1/(T+1).
func (g *Policy) distant(fill, hit uint8) bool {
	return int(fill) > g.p.T*int(hit)
}

// Hit implements cachesim.Policy.
func (g *Policy) Hit(set, way int, a stream.Access) {
	i := set*g.ways + way
	if g.IsSample(set) {
		g.sampleHit(set, i, a)
		// Samples always execute SRRIP: every hit promotes to RRPV zero.
		g.SetRRPV(set, way, 0)
		return
	}
	var v uint8 // hits promote to zero unless a texture epoch says otherwise
	switch {
	case a.Kind == stream.Texture:
		c := g.bank(set)
		switch g.state[i] {
		case StateRT:
			// Render target consumed as texture: the block becomes an E0
			// texture block and its RRPV reflects the sampled E0 reuse
			// probability (Table 4).
			g.state[i] = StateE0
			v = g.texInsertRRPV(c, 0)
		case StateE0:
			if g.p.Variant >= VariantGSPZTCTSE {
				g.state[i] = StateE1
				v = g.texInsertRRPV(c, 1)
			}
		default:
			g.state[i] = StateE2
		}
	case isRTKind(a.Kind):
		// Blending or surface reuse: the block (re)becomes a render
		// target with the highest protection (Tables 3 and 5).
		g.state[i] = StateRT
	}
	g.SetRRPV(set, way, v)
}

// texInsertRRPV returns the RRPV for a block entering texture epoch e:
// distant when the sampled epoch reuse probability is below 1/(T+1), zero
// otherwise (filling textures with RRPV two hurts performance, Section 3).
func (g *Policy) texInsertRRPV(c *Counters, e int) uint8 {
	if g.distant(c.FillE[e], c.HitE[e]) {
		return distantRRPV
	}
	return 0
}

func (g *Policy) sampleHit(set, i int, a stream.Access) {
	c := g.bank(set)
	c.bump()
	switch {
	case a.Kind == stream.Z:
		sat(&c.HitZ)
	case a.Kind == stream.Texture:
		switch g.state[i] {
		case StateRT:
			// RT -> TEX consumption: counts as a texture epoch-0 fill
			// (Table 3 and 4) and as a consumption event (Table 5).
			sat(&c.FillE[0])
			if g.p.Variant >= VariantGSPC {
				sat(&c.Cons)
			}
			g.state[i] = StateE0
		case StateE0:
			sat(&c.HitE[0])
			if g.p.Variant >= VariantGSPZTCTSE {
				sat(&c.FillE[1])
				g.state[i] = StateE1
			}
		case StateE1:
			sat(&c.HitE[1])
			g.state[i] = StateE2
		default:
			g.state[i] = StateE2
		}
	case isRTKind(a.Kind):
		g.state[i] = StateRT
	}
}

// Fill implements cachesim.Policy.
func (g *Policy) Fill(set, way int, a stream.Access) {
	i := set*g.ways + way
	if g.IsSample(set) {
		g.sampleFill(set, i, a)
		// Samples always execute SRRIP: fills are inserted with RRPV 2^n - 2.
		g.SetRRPV(set, way, longRRPV)
		return
	}
	c := g.bank(set)
	v, st := uint8(longRRPV), StateE0
	switch {
	case a.Kind == stream.Z:
		if g.distant(c.FillZ, c.HitZ) {
			v = distantRRPV
			g.Insertions.ZDistant++
		} else {
			g.Insertions.ZLong++
		}
	case a.Kind == stream.Texture:
		v = g.texInsertRRPV(c, 0)
		if v == distantRRPV {
			g.Insertions.TexDistant++
		} else {
			g.Insertions.TexZero++
		}
	case isRTKind(a.Kind):
		st = StateRT
		switch {
		case g.p.Variant < VariantGSPC:
			// GSPZTC and GSPZTC+TSE statically give render targets the
			// highest possible protection to enable RT->TEX reuse.
			v = 0
			g.Insertions.RTZero++
		case int(c.Prod) > g.p.ProdConsHi*int(c.Cons):
			v = distantRRPV
			g.Insertions.RTDistant++
		case int(c.Prod) > g.p.ProdConsLo*int(c.Cons):
			g.Insertions.RTLong++
		default:
			v = 0
			g.Insertions.RTZero++
		}
	}
	g.state[i] = st
	g.SetRRPV(set, way, v)
}

func (g *Policy) sampleFill(set, i int, a stream.Access) {
	c := g.bank(set)
	c.bump()
	g.state[i] = StateE0
	switch {
	case a.Kind == stream.Z:
		sat(&c.FillZ)
	case a.Kind == stream.Texture:
		sat(&c.FillE[0])
	case isRTKind(a.Kind):
		g.state[i] = StateRT
		if g.p.Variant >= VariantGSPC {
			sat(&c.Prod)
		}
	}
}

// Evict implements cachesim.Policy. Eviction resets the RT/epoch state:
// the paper's RT bit is reset on LLC eviction because only in-LLC
// render-target-to-texture reuses are of interest.
func (g *Policy) Evict(set, way int) {
	g.RRIP.Evict(set, way)
	g.state[set*g.ways+way] = StateE0
}

// StorageOverheadBits reports the bookkeeping overhead in bits beyond a
// two-bit DRRIP baseline for a cache with the given geometry: two state
// bits per block plus the per-bank counters (eight 8-bit and one 7-bit
// per bank — Section 4 quotes 32 KB + 284 bits for the 8 MB LLC, which is
// less than 0.5% of the data array).
func (g *Policy) StorageOverheadBits(geom cachesim.Geometry) int {
	blocks := geom.SizeBytes / geom.BlockSize
	perBank := 8*8 + 7
	return 2*blocks + perBank*g.p.Banks
}
