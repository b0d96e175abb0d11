// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per experiment) plus micro-benchmarks of the
// core components. The figure benches run a reduced configuration (one
// frame per application at 0.15 scale) so `go test -bench=.` completes in
// minutes; use cmd/gspcsim for full-suite runs.
//
// Key reported metrics (all normalized to two-bit DRRIP where the paper
// normalizes): missRatio* for the offline experiments and perf* for the
// timing experiments.
package gspc_test

import (
	"context"
	"testing"

	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/gpu"
	"gspc/internal/harness"
	"gspc/internal/policy"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/tracecache"
	"gspc/internal/workload"
	"gspc/internal/xrand"
)

// benchOptions is the reduced configuration used by the figure benches.
func benchOptions() harness.Options {
	return harness.Options{
		Scale:           0.15,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
	}
}

// runExperiment executes a harness experiment b.N times and reports the
// requested cells as benchmark metrics.
func runExperiment(b *testing.B, id string, metrics map[string][2]string) {
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := benchOptions()
	var tbl *harness.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for name, cell := range metrics {
		if v, ok := tbl.Cell(cell[0], cell[1]); ok {
			b.ReportMetric(v, name)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: NRU and Belady's optimal misses
// normalized to DRRIP. Paper: NRU 1.062, Belady 0.634.
func BenchmarkFig1(b *testing.B) {
	runExperiment(b, "fig1", map[string][2]string{
		"missRatioNRU":    {"MEAN", "NRU"},
		"missRatioBelady": {"MEAN", "Belady"},
	})
}

// BenchmarkFig4 regenerates Figure 4: the LLC stream mix. Paper: RT 40%,
// texture 34%.
func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4", map[string][2]string{
		"pctRT":  {"MEAN", "rt"},
		"pctTex": {"MEAN", "texture"},
		"pctZ":   {"MEAN", "z"},
	})
}

// BenchmarkFig5 regenerates Figure 5: per-stream hit rates. Paper
// averages: texture 53.4/22.0/18.4 for Belady/DRRIP/NRU.
func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", map[string][2]string{
		"texHitBelady": {"MEAN", "tex/Bel"},
		"texHitDRRIP":  {"MEAN", "tex/DRRIP"},
		"zHitBelady":   {"MEAN", "z/Bel"},
	})
}

// BenchmarkFig6 regenerates Figure 6: texture reuse split and RT
// consumption. Paper: 55% of Belady's texture hits inter-stream;
// consumption 51/16/13%.
func BenchmarkFig6(b *testing.B) {
	runExperiment(b, "fig6", map[string][2]string{
		"interPctBelady": {"MEAN", "inter/Bel"},
		"consBelady":     {"MEAN", "cons/Bel"},
		"consDRRIP":      {"MEAN", "cons/DRRIP"},
	})
}

// BenchmarkFig7 regenerates Figure 7: texture epochs under Belady.
// Paper: E0 hits 79%, death ratios 0.81/0.73/0.53.
func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7", map[string][2]string{
		"hitPctE0": {"MEAN", "hit%E0"},
		"deathE0":  {"MEAN", "death E0"},
		"deathE2":  {"MEAN", "death E2"},
	})
}

// BenchmarkFig8 regenerates Figure 8: distant fills under DRRIP. Paper:
// RT ~25%, texture ~36%.
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", map[string][2]string{
		"distantRT":  {"MEAN", "RT"},
		"distantTex": {"MEAN", "texture"},
	})
}

// BenchmarkFig9 regenerates Figure 9: Z epoch death ratios. Paper:
// 0.61/0.38/0.26.
func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", map[string][2]string{
		"zDeathE0": {"MEAN", "death E0"},
		"zDeathE2": {"MEAN", "death E2"},
	})
}

// BenchmarkFig11 regenerates Figure 11: GSPZTC threshold sensitivity
// (percent change vs t=16). Paper: near-flat averages.
func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11", map[string][2]string{
		"deltaT2": {"MEAN", "t=2"},
		"deltaT8": {"MEAN", "t=8"},
	})
}

// BenchmarkFig12 regenerates Figure 12: all policies normalized to
// DRRIP. Paper means: GSPZTC+TSE 0.885, GSPC+UCD 0.869.
func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", map[string][2]string{
		"missRatioGSDRRIP": {"MEAN", "GS-DRRIP"},
		"missRatioGSPZTC":  {"MEAN", "GSPZTC"},
		"missRatioTSE":     {"MEAN", "GSPZTC+TSE"},
		"missRatioGSPCUCD": {"MEAN", "GSPC+UCD"},
	})
}

// BenchmarkFig13 regenerates Figure 13: suite-average stream metrics per
// policy. Paper: GSPC rt read hit 57.7% vs Belady 59.8%.
func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "fig13", map[string][2]string{
		"texHitGSPC": {"GSPC", "tex hit"},
		"consGSPC":   {"GSPC", "rt->tex cons"},
		"rtHitGSPC":  {"GSPC", "rt read hit"},
	})
}

// BenchmarkFig14 regenerates Figure 14: iso-overhead policies. Paper
// means: LRU 1.072, GSPC 0.882.
func BenchmarkFig14(b *testing.B) {
	runExperiment(b, "fig14", map[string][2]string{
		"missRatioLRU":    {"MEAN", "LRU"},
		"missRatioDRRIP4": {"MEAN", "DRRIP-4"},
		"missRatioGSPC":   {"MEAN", "GSPC+UCD"},
	})
}

// BenchmarkFig15 regenerates Figure 15: performance on the 8 MB LLC.
// Paper means: NRU 0.93, GSPC 1.08.
func BenchmarkFig15(b *testing.B) {
	runExperiment(b, "fig15", map[string][2]string{
		"perfNRU":  {"MEAN", "NRU"},
		"perfGSPC": {"MEAN", "GSPC+UCD"},
	})
}

// BenchmarkFig16 regenerates Figure 16: performance on the 16 MB LLC.
// Paper means: GSPC 1.118.
func BenchmarkFig16(b *testing.B) {
	runExperiment(b, "fig16", map[string][2]string{
		"perfNRU":  {"MEAN", "NRU"},
		"perfGSPC": {"MEAN", "GSPC+UCD"},
	})
}

// BenchmarkFig17 regenerates Figure 17: DDR3-1867 and the less
// aggressive GPU. Paper means: GSPC 1.071 and 1.059.
func BenchmarkFig17(b *testing.B) {
	runExperiment(b, "fig17", map[string][2]string{
		"perfGSPCFastDRAM": {"ddr3-1867/MEAN", "GSPC+UCD"},
		"perfGSPCSmallGPU": {"smallgpu/MEAN", "GSPC+UCD"},
	})
}

// BenchmarkTable1 regenerates Table 1 (the suite definition).
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "tab1", map[string][2]string{
		"apps": {"Heaven", "Frames"},
	})
}

// BenchmarkTable6 regenerates Table 6 (the policy registry).
func BenchmarkTable6(b *testing.B) {
	runExperiment(b, "tab6", nil)
}

// --- Micro-benchmarks of the core components ---

// benchTrace synthesizes one small frame trace once per process.
var benchTraceCache []stream.Access

func benchTrace(b *testing.B) []stream.Access {
	if benchTraceCache == nil {
		benchTraceCache = trace.GenerateFrame(workload.Suite()[14], 0.15)
	}
	b.SetBytes(0)
	return benchTraceCache
}

func benchPolicy(b *testing.B, mk func() cachesim.Policy) {
	tr := benchTrace(b)
	geom := cachesim.Geometry{SizeBytes: 256 << 10, Ways: 16, BlockSize: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cachesim.New(geom, mk())
		for _, a := range tr {
			c.Access(a)
		}
	}
	b.ReportMetric(float64(len(tr)), "accesses/op")
}

// BenchmarkLLCAccessDRRIP measures the offline simulator's throughput
// with the baseline policy.
func BenchmarkLLCAccessDRRIP(b *testing.B) {
	benchPolicy(b, func() cachesim.Policy { return policy.NewDRRIP(2) })
}

// BenchmarkLLCAccessGSPC measures the GSPC policy's overhead relative to
// DRRIP (compare with BenchmarkLLCAccessDRRIP).
func BenchmarkLLCAccessGSPC(b *testing.B) {
	benchPolicy(b, func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPC)) })
}

// BenchmarkLLCAccessLRU measures the simplest stack policy.
func BenchmarkLLCAccessLRU(b *testing.B) {
	benchPolicy(b, func() cachesim.Policy { return policy.NewLRU() })
}

// BenchmarkLLCAccessSHiP measures the signature-based predictor.
func BenchmarkLLCAccessSHiP(b *testing.B) {
	benchPolicy(b, func() cachesim.Policy { return policy.NewSHiPMem(4) })
}

// BenchmarkBeladyPreprocess measures the next-use chain construction.
func BenchmarkBeladyPreprocess(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		belady.NextUse(tr, 6)
	}
}

// BenchmarkBeladyReplay measures a full optimal-policy replay.
func BenchmarkBeladyReplay(b *testing.B) {
	tr := benchTrace(b)
	next := belady.NextUse(tr, 6)
	geom := cachesim.Geometry{SizeBytes: 256 << 10, Ways: 16, BlockSize: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cachesim.New(geom, belady.NewOPT(next))
		for _, a := range tr {
			c.Access(a)
		}
	}
}

// BenchmarkTraceGeneration measures the full pipeline + render cache
// synthesis of one frame's LLC trace.
func BenchmarkTraceGeneration(b *testing.B) {
	job := workload.Suite()[14]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.GenerateFrame(job, 0.15)
		if len(tr) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// benchPackedCache holds the packed variant of benchTrace, built once.
var benchPackedCache *stream.Trace

func benchPacked(b *testing.B) *stream.Trace {
	if benchPackedCache == nil {
		benchPackedCache = stream.Pack(benchTrace(b))
	}
	return benchPackedCache
}

// benchReplayPacked replays the packed bench trace through a fresh cache
// per iteration via cachesim.ReplaySource — the replay path every
// harness experiment uses — with the display stream uncached when ucd
// is set, as the +UCD policy specs configure it.
func benchReplayPacked(b *testing.B, mk func() cachesim.Policy, ucd bool) {
	tr := benchPacked(b)
	geom := cachesim.Geometry{SizeBytes: 256 << 10, Ways: 16, BlockSize: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cachesim.New(geom, mk())
		c.SetBypass(stream.Display, ucd)
		if err := cachesim.ReplaySource(context.Background(), c, tr, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "accesses/op")
}

// BenchmarkLLCAccessDRRIPPacked is BenchmarkLLCAccessDRRIP over the
// packed trace representation. It and the Packed benches below cover
// every policy the figures replay, one bench each, so a replay
// regression names its policy.
func BenchmarkLLCAccessDRRIPPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return policy.NewDRRIP(2) }, false)
}

func BenchmarkLLCAccessNRUPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return policy.NewNRU() }, false)
}

func BenchmarkLLCAccessSHiPPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return policy.NewSHiPMem(4) }, false)
}

func BenchmarkLLCAccessGSDRRIPPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return policy.NewGSDRRIP(2) }, false)
}

func BenchmarkLLCAccessGSPZTCPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPZTC)) }, false)
}

func BenchmarkLLCAccessGSPZTCTSEPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPZTCTSE)) }, false)
}

func BenchmarkLLCAccessGSPCPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPC)) }, false)
}

func BenchmarkLLCAccessGSPCUCDPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPC)) }, true)
}

func BenchmarkLLCAccessDRRIPUCDPacked(b *testing.B) {
	benchReplayPacked(b, func() cachesim.Policy { return policy.NewDRRIP(2) }, true)
}

// BenchmarkLLCAccessBeladyPacked times the optimal policy's replay; its
// next-use preprocessing is built once, outside the timer.
func BenchmarkLLCAccessBeladyPacked(b *testing.B) {
	next := belady.NextUseTrace(benchPacked(b), 6)
	benchReplayPacked(b, func() cachesim.Policy { return belady.NewOPT(next) }, false)
}

// BenchmarkTraceGenerationPacked measures synthesis straight into the
// packed representation (no []stream.Access intermediate), reusing one
// buffer across iterations the way the ablation sweeps do.
func BenchmarkTraceGenerationPacked(b *testing.B) {
	job := workload.Suite()[14]
	cfg := rendercache.DefaultConfig().Scaled(0.15)
	t := stream.NewTrace(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.GeneratePackedInto(t, job, 0.15, cfg)
		if t.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceCacheWarm measures a warm lookup in the shared frame
// trace cache — the cost every repeat experiment now pays per frame in
// place of full synthesis.
func BenchmarkTraceCacheWarm(b *testing.B) {
	c := tracecache.New(64 << 20)
	k := tracecache.Key{Job: "bench", Scale: 0.15, Config: "bench"}
	synth := func(context.Context) (*stream.Trace, error) { return benchPacked(b), nil }
	if _, err := c.Get(context.Background(), k, synth); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(context.Background(), k, synth); err != nil {
			b.Fatal(err)
		}
	}
	s := c.Stats()
	b.ReportMetric(float64(s.Hits), "hits/run")
}

// runFig12Cold runs fig12 on one app with a private, per-iteration
// trace cache, so every iteration pays full synthesis: the
// interactive-latency comparison the fidelity knob exists for is the
// cold first query, not the warm replay.
func runFig12Cold(b *testing.B, opts harness.Options) {
	exp, ok := harness.ByID("fig12")
	if !ok {
		b.Fatal("unknown experiment fig12")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.TraceCache = tracecache.New(harness.DefaultTraceCacheBytes)
		if _, err := exp.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SampledS1 measures a cold full-resolution (S=1) Fig12
// run at sampled fidelity — the PR 8 headline: this must beat
// BenchmarkFig12ExactQuarter, the S=1/4 exact run it replaces as the
// interactive operating point.
func BenchmarkFig12SampledS1(b *testing.B) {
	runFig12Cold(b, harness.Options{
		Scale:           1,
		MaxFramesPerApp: 1,
		Apps:            []string{"Dirt"},
		Fidelity:        harness.FidelitySampled,
	})
}

// BenchmarkFig12ExactQuarter measures the same cold Fig12 run at the
// pre-sampling operating point: exact fidelity, S=1/4.
func BenchmarkFig12ExactQuarter(b *testing.B) {
	runFig12Cold(b, harness.Options{
		Scale:           0.25,
		MaxFramesPerApp: 1,
		Apps:            []string{"Dirt"},
	})
}

// BenchmarkLLCAccessDRRIPSampled is BenchmarkLLCAccessDRRIPPacked with
// 1-in-16 set sampling — the sampled hot path: the replay must skip
// non-sampled sets cheaply enough that throughput scales with the
// sampled fraction.
func BenchmarkLLCAccessDRRIPSampled(b *testing.B) {
	tr := benchPacked(b)
	geom := cachesim.Geometry{SizeBytes: 256 << 10, Ways: 16, BlockSize: 64}
	ss := cachesim.SetSample{Ratio: 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cachesim.NewSampled(geom, policy.NewDRRIP(2), ss)
		if err := cachesim.ReplaySource(context.Background(), c, tr, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "accesses/op")
}

// BenchmarkGPUSimulate measures the event-driven timing simulator over
// the packed trace the harness hands it.
func BenchmarkGPUSimulate(b *testing.B) {
	tr := benchPacked(b)
	cfg := gpu.DefaultConfig(cachesim.Geometry{SizeBytes: 256 << 10, Ways: 16, BlockSize: 64})
	cfg.UncachedDisplay = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gpu.SimulateSource(tr, cfg, policy.NewDRRIP(2))
		if r.Cycles == 0 {
			b.Fatal("no cycles simulated")
		}
	}
	b.ReportMetric(float64(tr.Len()), "accesses/op")
}

// BenchmarkXRand measures the workload PRNG.
func BenchmarkXRand(b *testing.B) {
	r := xrand.New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
