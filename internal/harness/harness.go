// Package harness defines one runnable experiment per figure and table of
// the paper's evaluation, producing text tables with the same rows and
// series the paper reports. Experiments run the 52-frame suite through
// the offline LLC simulator (Figures 1-14) or the GPU timing simulator
// (Figures 15-17) at a configurable scale.
package harness

import (
	"context"
	"fmt"
	"io"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
	"gspc/internal/trace"
	"gspc/internal/tracecache"
	"gspc/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the linear frame scale relative to the paper's
	// resolutions (1.0 = full size). The default 0.25 keeps the full
	// suite tractable on a laptop.
	Scale float64
	// CapacityFactor calibrates the scaled LLC capacity:
	// modelBytes = paperBytes * Scale^2 * CapacityFactor. The factor 1.5
	// compensates for residency-window effects that do not scale with
	// area (see DESIGN.md, "Scaling").
	CapacityFactor float64
	// MaxFramesPerApp truncates each application's frame list (0 = all);
	// benchmarks use 1 for quick runs.
	MaxFramesPerApp int
	// Apps restricts the run to the named applications (empty = all 12).
	Apps []string
	// Workers caps the trace-synthesis worker pool (0 = default of
	// min(GOMAXPROCS, 4)). Each in-flight trace holds tens of MB, so
	// deployments with memory headroom can raise it and constrained ones
	// can set 1 to synthesize one frame at a time. Each synthesis also
	// uses a second goroutine, which runs the render caches while the
	// frame rasterizes (pipeline.Renderer.RenderFrame). Results are
	// identical at any setting.
	Workers int
	// Progress, when non-nil, receives one line per completed frame.
	Progress io.Writer
	// Context, when non-nil, bounds the run: trace synthesis checks it
	// between frames and the simulation loops poll it every
	// cachesim.DefaultCheckStride accesses, so cancelling it (or letting
	// its deadline expire) stops an experiment mid-flight instead of
	// after the full suite. Nil means context.Background(). The context
	// never affects results, only whether the run finishes, so it is
	// excluded from cache-key derivation exactly like Workers.
	Context context.Context
	// TraceCache, when non-nil, overrides the process-wide shared frame
	// trace cache for this run. Tests use private caches; production
	// runs share one so concurrent experiments and gspcd jobs coalesce
	// their synthesis. Like Workers and Context it never affects
	// results, so it is excluded from result-cache keys.
	TraceCache *tracecache.Cache
	// Fidelity selects FidelityExact (the default; bit-identical to the
	// pre-sampling behavior) or FidelitySampled, which composes set
	// sampling and interval sampling to trade a pinned error bound for
	// interactive latency at full resolution. Unlike Workers/Context it
	// DOES affect results and is part of cache-key derivation.
	Fidelity string
	// SampleSetRatio is the set-sampling ratio for sampled runs:
	// simulate 1 in SampleSetRatio LLC sets (0 = DefaultSampleSetRatio,
	// 1 = all sets, i.e. interval sampling only). Ignored for exact runs.
	SampleSetRatio int
	// SampleSeed seeds the deterministic set-selection hash (0 = 1).
	// The same (seed, ratio) selects the same set indices on every
	// geometry, so sweeps over capacity stay comparable.
	SampleSeed uint64
	// sampleAgg, when non-nil on a sampled run, accumulates per-replay
	// sampling reports for the serialized Result (set by
	// RunResultContext; plain Run leaves it nil).
	sampleAgg *sampleAgg
}

// DefaultOptions returns the standard scaled configuration.
func DefaultOptions() Options {
	return Options{Scale: 0.25, CapacityFactor: 1.5}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.CapacityFactor <= 0 {
		if o.Scale >= 1 {
			o.CapacityFactor = 1
		} else {
			o.CapacityFactor = 1.5
		}
	}
	if o.MaxFramesPerApp < 0 {
		o.MaxFramesPerApp = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.Fidelity != FidelitySampled {
		o.Fidelity = FidelityExact
	}
	if o.Fidelity == FidelitySampled {
		if o.SampleSetRatio <= 0 {
			o.SampleSetRatio = DefaultSampleSetRatio
		}
		if o.SampleSeed == 0 {
			o.SampleSeed = 1
		}
	} else {
		// Sampling knobs are meaningless on exact runs: canonicalize them
		// away so every exact spelling shares one cache key.
		o.SampleSetRatio = 0
		o.SampleSeed = 0
	}
	return o
}

// Normalized returns the options with defaults applied: it is the exact
// configuration an experiment runs with, so callers that derive cache
// keys from options (internal/service) see the same canonical values for
// every spelling of the defaults.
func (o Options) Normalized() Options { return o.normalized() }

// ctx returns the run's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Geometry maps a paper LLC capacity (e.g. 8 MB) to the scaled model
// geometry, keeping 16 ways and 64-byte blocks and quantizing to whole
// sets.
func (o Options) Geometry(paperBytes int) cachesim.Geometry {
	o = o.normalized()
	const ways, block = 16, 64
	setBytes := ways * block
	sets := int(float64(paperBytes)*o.Scale*o.Scale*o.CapacityFactor) / setBytes
	if sets < 16 {
		sets = 16
	}
	return cachesim.Geometry{SizeBytes: sets * setBytes, Ways: ways, BlockSize: block}
}

// Jobs returns the frame jobs selected by the options.
func (o Options) Jobs() []workload.FrameJob {
	var jobs []workload.FrameJob
	want := map[string]bool{}
	for _, a := range o.Apps {
		want[a] = true
	}
	perApp := map[string]int{}
	for _, j := range workload.Suite() {
		if len(want) > 0 && !want[j.App.Abbrev] {
			continue
		}
		if o.MaxFramesPerApp > 0 && perApp[j.App.Abbrev] >= o.MaxFramesPerApp {
			continue
		}
		perApp[j.App.Abbrev]++
		jobs = append(jobs, j)
	}
	return jobs
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table 1: DirectX application suite", RunTable1},
		{"fig1", "Figure 1: NRU and Belady LLC misses normalized to DRRIP (8 MB)", RunFig1},
		{"fig4", "Figure 4: stream-wise distribution of LLC accesses", RunFig4},
		{"fig5", "Figure 5: texture/RT/Z hit rates under Belady, DRRIP, NRU", RunFig5},
		{"fig6", "Figure 6: inter- vs intra-stream texture reuse and RT consumption", RunFig6},
		{"fig7", "Figure 7: texture epoch hit distribution and death ratios (Belady)", RunFig7},
		{"fig8", "Figure 8: RT and texture fills with RRPV=3 under DRRIP", RunFig8},
		{"fig9", "Figure 9: Z epoch death ratios (Belady)", RunFig9},
		{"fig11", "Figure 11: GSPZTC sensitivity to threshold t (vs t=16)", RunFig11},
		{"fig12", "Figure 12: LLC misses of all policies normalized to DRRIP (8 MB)", RunFig12},
		{"fig13", "Figure 13: stream metrics averaged over the suite, per policy", RunFig13},
		{"fig14", "Figure 14: iso-overhead comparison (4 replacement-state bits)", RunFig14},
		{"fig15", "Figure 15: performance normalized to DRRIP on 8 MB LLC", RunFig15},
		{"fig16", "Figure 16: performance normalized to DRRIP on 16 MB LLC", RunFig16},
		{"fig17", "Figure 17: sensitivity — DDR3-1867 and less aggressive GPU", RunFig17},
		{"tab6", "Table 6: evaluated policies", RunTable6},
	}
}

// ByID finds an experiment among the paper's figures and tables and the
// extensions.
func ByID(id string) (Experiment, bool) {
	for _, e := range append(All(), Extensions()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// paperLLCBytes is the baseline 8 MB capacity of Section 4.
const paperLLCBytes = 8 << 20

// policySpec names a policy with its display-stream caching mode. A nil
// make stands for Belady's OPT, which runOffline builds from the trace it
// replays.
type policySpec struct {
	name string
	ucd  bool
	make func() cachesim.Policy
}

func specBelady() policySpec { return policySpec{name: "Belady"} }

func specDRRIP() policySpec {
	return policySpec{name: "DRRIP", make: func() cachesim.Policy { return policy.NewDRRIP(2) }}
}

func specNRU() policySpec {
	return policySpec{name: "NRU", make: func() cachesim.Policy { return policy.NewNRU() }}
}

func specGSPC(v core.Variant, t int, ucd bool) policySpec {
	name := v.String()
	if t != 8 && t > 0 {
		name = fmt.Sprintf("%s(t=%d)", v, t)
	}
	if ucd {
		name += "+UCD"
	}
	return policySpec{name: name, ucd: ucd, make: func() cachesim.Policy {
		p := core.DefaultParams(v)
		if t > 0 {
			p.T = t
		}
		return core.New(p)
	}}
}

// frameResult carries everything the offline experiments extract from one
// policy run on one frame.
type frameResult struct {
	stats   cachesim.Stats
	tracker *analysis.Tracker
	drrip   drripFillStats
}

type drripFillStats struct {
	fills, distant [stream.NumKinds]int64
}

// Replays attach an analysis.Tracker only when their experiment reads
// it (Figures 5, 6, 7, 9 and 13). The tracker observes every access,
// and the other figures read only miss counts and policy tallies.
const (
	noTracker   = false
	withTracker = true
)

// runOffline replays tr through the policy on the given geometry,
// polling ctx inside the access loop so cancellation stops a frame
// mid-trace. The trace is shared and read-only: any number of policy
// replays may run over the same packed trace concurrently. With track
// set the result carries an analysis tracker; otherwise its tracker is
// nil. OPT's next-use chains are keyed on global Seq, so a windowed
// Belady replay sees the same lookahead a full replay would.
//
// A nil plan replays the full trace exactly. A non-nil plan runs the
// sampled protocol: allocate only the sampled sets, warm the cache on
// [warmStart, measStart) with counters discarded, measure
// [measStart, Len), then extrapolate every counter to full-trace,
// full-set scale.
func runOffline(ctx context.Context, tr *stream.Trace, spec policySpec, geom cachesim.Geometry, plan *samplePlan, track bool) (frameResult, error) {
	defer trackStage(ctx, pickReplay)()
	defer telemetry.StartFrom(ctx, spec.name, "replay").End()
	var pol cachesim.Policy
	if spec.make == nil {
		pol = belady.NewOPT(belady.NextUseTrace(tr, blockShift(geom.BlockSize)))
	} else {
		pol = spec.make()
	}
	var c *cachesim.Cache
	if plan == nil {
		c = cachesim.New(geom, pol)
	} else {
		c = cachesim.NewSampled(geom, pol, plan.sample)
	}
	if spec.ucd {
		c.SetBypass(stream.Display, true)
	}
	var tk *analysis.Tracker
	if track {
		tk = analysis.Attach(c)
	}
	if plan == nil {
		if err := cachesim.ReplaySource(ctx, c, tr, 0); err != nil {
			return frameResult{}, err
		}
	} else {
		if err := cachesim.ReplaySourceRange(ctx, c, tr, plan.warmStart, plan.measStart, 0); err != nil {
			return frameResult{}, err
		}
		resetRunCounters(c, tk, pol)
		if err := cachesim.ReplaySourceRange(ctx, c, tr, plan.measStart, tr.Len(), 0); err != nil {
			return frameResult{}, err
		}
	}
	recordLLCStats(&c.Stats)
	res := frameResult{stats: c.Stats, tracker: tk}
	if d, ok := pol.(*policy.DRRIP); ok {
		res.drrip = drripFillStats{fills: d.FillsByKind, distant: d.DistantFillsByKind}
	}
	if plan != nil {
		plan.observe(c)
		scaleFrameResult(&res, plan.scaleFor(c))
	}
	return res, nil
}

// recordLLCStats folds one finished replay's per-stream access and hit
// counts into the process-global telemetry counters: once per frame
// replay, never inside the access loop.
func recordLLCStats(s *cachesim.Stats) {
	for _, k := range stream.Kinds() {
		telemetry.RecordLLCStream(k.String(), s.KindAccesses[k], s.KindHits[k])
	}
}

func blockShift(block int) uint {
	var s uint
	for 1<<s < block {
		s++
	}
	return s
}

// DefaultTraceCacheBytes is the byte budget of the process-wide frame
// trace cache: enough for the whole 52-frame suite at the default 0.25
// scale (~9 MB of packed records per frame at most) with headroom, small
// enough to coexist with a few in-flight experiments.
const DefaultTraceCacheBytes = 256 << 20

// sharedCache deduplicates and retains synthesized frame traces across
// every experiment and every concurrent gspcd job in the process.
var sharedCache = tracecache.New(DefaultTraceCacheBytes)

// SharedTraceCache exposes the process-wide frame-trace cache so servers
// can resize its budget (gspcd -trace-cache-mb) and report its counters.
func SharedTraceCache() *tracecache.Cache { return sharedCache }

// traceCache resolves the cache an experiment uses: the per-run override
// or the shared process-wide one.
func (o Options) traceCache() *tracecache.Cache {
	if o.TraceCache != nil {
		return o.TraceCache
	}
	return sharedCache
}

// genTrace returns the packed LLC trace for a job at the options' scale,
// through the frame-trace cache: hits are free, misses synthesize once
// even under concurrent identical requests. The returned trace is shared
// and must not be mutated.
func genTrace(ctx context.Context, o Options, j workload.FrameJob) (*stream.Trace, error) {
	o = o.normalized()
	cfg := rendercache.DefaultConfig().Scaled(o.Scale)
	key := tracecache.Key{Job: j.ID(), Scale: o.Scale, Config: cfg.Digest()}
	return o.traceCache().Get(ctx, key, func(ctx context.Context) (*stream.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		defer trackStage(ctx, pickSynth)()
		defer telemetry.StartFrom(ctx, "synthesize", "synth", telemetry.String("job", j.ID())).End()
		t := stream.NewTrace(trace.EstimateAccesses(j, o.Scale))
		trace.GeneratePackedInto(t, j, o.Scale, cfg)
		return t, nil
	})
}

// appOrder returns the distinct application abbreviations of jobs, in
// suite order.
func appOrder(jobs []workload.FrameJob) []string {
	seen := map[string]bool{}
	var order []string
	for _, j := range jobs {
		if !seen[j.App.Abbrev] {
			seen[j.App.Abbrev] = true
			order = append(order, j.App.Abbrev)
		}
	}
	return order
}

// appTable builds a per-application table: one row per app of order,
// with the values row returns, then a MEAN row that sums each column in
// app order and divides by the app count (0 when there are no apps, so
// the table stays NaN-free).
func appTable(title string, columns, order []string, row func(ab string) []float64, notes ...string) *Table {
	t := &Table{Title: title, Columns: columns}
	means := make([]float64, len(columns))
	for _, ab := range order {
		vals := row(ab)
		for i, v := range vals {
			means[i] += v
		}
		t.AddRow(ab, vals...)
	}
	if len(order) > 0 {
		for i := range means {
			means[i] /= float64(len(order))
		}
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes, notes...)
	return t
}

func (o Options) progressf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}
