// Integration tests crossing package boundaries: workload -> pipeline ->
// render caches -> LLC -> policies -> timing model, verifying the
// end-to-end invariants a figure regeneration relies on.
package gspc_test

import (
	"bytes"
	"context"
	"testing"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/gpu"
	"gspc/internal/harness"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

const itScale = 0.12

func itTrace(t testing.TB, jobIdx int) *stream.Trace {
	t.Helper()
	jobs := workload.Suite()
	return trace.GeneratePacked(jobs[jobIdx], itScale)
}

// replay plays tr through c with the harness's replay loop.
func replay(t testing.TB, c *cachesim.Cache, tr *stream.Trace) {
	t.Helper()
	if err := cachesim.ReplaySource(context.Background(), c, tr, 0); err != nil {
		t.Fatal(err)
	}
}

func itGeom() cachesim.Geometry {
	return cachesim.Geometry{SizeBytes: 192 << 10, Ways: 16, BlockSize: 64}
}

// TestEndToEndDeterminism: the whole stack — trace synthesis, offline
// replay, and the timing simulator — must be bit-reproducible.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		tr := itTrace(t, 20)
		c := cachesim.New(itGeom(), core.New(core.DefaultParams(core.VariantGSPC)))
		replay(t, c, tr)
		cfg := gpu.DefaultConfig(itGeom())
		cfg.Cores = 8
		r := gpu.SimulateSource(tr, cfg, policy.NewDRRIP(2))
		return c.Stats.Misses, r.Cycles
	}
	m1, cy1 := run()
	m2, cy2 := run()
	if m1 != m2 || cy1 != cy2 {
		t.Fatalf("end-to-end nondeterminism: misses %d/%d cycles %d/%d", m1, m2, cy1, cy2)
	}
}

// TestBeladyLowerBoundsOnRealTrace: Belady's optimal must lower-bound
// every policy in the repository on a real generated frame.
func TestBeladyLowerBoundsOnRealTrace(t *testing.T) {
	tr := itTrace(t, 2)
	geom := itGeom()
	opt := cachesim.New(geom, belady.NewOPT(belady.NextUseTrace(tr, 6)))
	replay(t, opt, tr)
	rivals := []cachesim.Policy{
		policy.NewDRRIP(2), policy.NewNRU(), policy.NewLRU(), policy.NewSRRIP(2),
		policy.NewGSDRRIP(2), policy.NewSHiPMem(4), policy.NewDIP(), policy.NewPeLIFO(),
		policy.NewCounterDBP(), policy.NewUCP(), policy.NewRandom(3), policy.NewHawkeye(),
		core.New(core.DefaultParams(core.VariantGSPZTC)),
		core.New(core.DefaultParams(core.VariantGSPZTCTSE)),
		core.New(core.DefaultParams(core.VariantGSPC)),
	}
	for _, r := range rivals {
		c := cachesim.New(geom, r)
		replay(t, c, tr)
		if opt.Stats.Misses > c.Stats.Misses {
			t.Errorf("Belady (%d misses) beaten by %s (%d misses)", opt.Stats.Misses, r.Name(), c.Stats.Misses)
		}
	}
}

// TestTimingAndOfflineAgreeOnVolume: the GPU model must present exactly
// the trace's accesses to its LLC, whatever the interleaving.
func TestTimingAndOfflineAgreeOnVolume(t *testing.T) {
	tr := itTrace(t, 30)
	cfg := gpu.DefaultConfig(itGeom())
	r := gpu.SimulateSource(tr, cfg, policy.NewDRRIP(2))
	if r.LLC.Accesses != int64(tr.Len()) {
		t.Errorf("timing model LLC saw %d accesses, trace has %d", r.LLC.Accesses, tr.Len())
	}
	// The interleaved order changes misses only moderately.
	off := cachesim.New(itGeom(), policy.NewDRRIP(2))
	replay(t, off, tr)
	lo, hi := off.Stats.Misses*7/10, off.Stats.Misses*13/10
	if r.LLC.Misses < lo || r.LLC.Misses > hi {
		t.Errorf("timing-model misses %d far from offline %d", r.LLC.Misses, off.Stats.Misses)
	}
}

// TestDRAMTrafficMatchesMissesAndWritebacks: every LLC miss fetch and
// dirty writeback must appear in DRAM, and nothing else (MSHR merges may
// reduce reads, never increase them).
func TestDRAMTrafficMatchesMissesAndWritebacks(t *testing.T) {
	tr := itTrace(t, 40)
	cfg := gpu.DefaultConfig(itGeom())
	r := gpu.SimulateSource(tr, cfg, policy.NewDRRIP(2))
	fills := r.LLC.Misses - r.LLC.Bypasses
	if r.DRAM.Reads > r.LLC.Misses {
		t.Errorf("DRAM reads %d exceed LLC misses %d", r.DRAM.Reads, r.LLC.Misses)
	}
	if r.DRAM.Reads < fills/2 {
		t.Errorf("DRAM reads %d implausibly below fills %d", r.DRAM.Reads, fills)
	}
	if r.DRAM.Writes < r.LLC.Writebacks {
		t.Errorf("DRAM writes %d below LLC writebacks %d", r.DRAM.Writes, r.LLC.Writebacks)
	}
}

// TestUCDNeverAddsDisplayHits: with UCD, display accesses never hit.
func TestUCDNeverAddsDisplayHits(t *testing.T) {
	tr := itTrace(t, 10)
	c := cachesim.New(itGeom(), core.New(core.DefaultParams(core.VariantGSPC)))
	c.SetBypass(stream.Display, true)
	replay(t, c, tr)
	if c.Stats.KindHits[stream.Display] != 0 {
		t.Errorf("bypassed display stream recorded %d hits", c.Stats.KindHits[stream.Display])
	}
}

// TestConsumptionAmplification: GSPC's render-target protection must
// materially raise the RT-to-texture consumption rate over DRRIP on a
// render-to-texture heavy frame — the paper's central mechanism.
func TestConsumptionAmplification(t *testing.T) {
	p, _ := workload.ProfileByAbbrev("Civilization")
	tr := trace.GeneratePacked(workload.FrameJob{App: p, Index: 0}, 0.2)
	geom := cachesim.Geometry{SizeBytes: 512 << 10, Ways: 16, BlockSize: 64}

	cd := cachesim.New(geom, policy.NewDRRIP(2))
	td := analysis.Attach(cd)
	replay(t, cd, tr)
	cg := cachesim.New(geom, core.New(core.DefaultParams(core.VariantGSPC)))
	cg.SetBypass(stream.Display, true)
	tg := analysis.Attach(cg)
	replay(t, cg, tr)
	if tg.RTConsumptionRate() < td.RTConsumptionRate()*1.2 {
		t.Errorf("GSPC consumption %.1f%% does not amplify DRRIP's %.1f%%",
			100*tg.RTConsumptionRate(), 100*td.RTConsumptionRate())
	}
}

// TestReportGeneration: the markdown report must include every table and
// the paper-vs-measured summary.
func TestReportGeneration(t *testing.T) {
	var buf bytes.Buffer
	o := harness.Options{Scale: 0.1, CapacityFactor: 1.5, MaxFramesPerApp: 1, Apps: []string{"Dirt"}}
	if err := harness.WriteReport(&buf, o, []string{"tab1", "fig1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# EXPERIMENTS", "## tab1", "## fig1", "paper versus measured", "Belady"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := harness.WriteReport(&buf, o, []string{"bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestPaperClaimsResolvable: every pinned paper claim must reference an
// experiment and column that actually exist (guards against drift when
// tables are renamed).
func TestPaperClaimsResolvable(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range harness.All() {
		ids[e.ID] = true
	}
	for _, c := range harness.PaperClaims() {
		if !ids[c.Experiment] {
			t.Errorf("claim references unknown experiment %s", c.Experiment)
		}
	}
}
