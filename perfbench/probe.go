package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/gpu"
	"gspc/internal/harness"
	"gspc/internal/pipeline"
	"gspc/internal/policy"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/tracecache"
)

// probeSpec names the traces the per-layer probes replay: every app's
// first frame at one scale and capacity factor, the same traces the
// workload's ops run on.
type probeSpec struct {
	name        string
	scale, capf float64
}

func suiteSpec(scale, capf float64) probeSpec {
	return probeSpec{name: fmt.Sprintf("suite@%g", scale), scale: scale, capf: capf}
}

// probeSpecs lists every probe set a workload uses.
func probeSpecs() []probeSpec {
	return []probeSpec{suiteSpec(figScale, figCapacity), suiteSpec(serveScale, serveCapacity)}
}

// The replay probes repeat replayReps times and keep the median; the
// timing-model probes run once. The synthesis layers are probed on every
// synthEvery-th app, synthReps times each.
const (
	replayReps = 3
	synthEvery = 4
	synthReps  = 3
)

// policyDef is one LLC policy as the harness's experiments configure it.
type policyDef struct {
	name string
	ucd  bool // uncached displayable color: display-stream bypass
	mk   func() cachesim.Policy
}

func drrip() cachesim.Policy { return policy.NewDRRIP(2) }

func gspc(v core.Variant) func() cachesim.Policy {
	return func() cachesim.Policy { return core.New(core.DefaultParams(v)) }
}

// replayPolicies are DRRIP and the eight Figure 12 policies.
var replayPolicies = []policyDef{
	{name: "DRRIP", mk: drrip},
	{name: "NRU", mk: func() cachesim.Policy { return policy.NewNRU() }},
	{name: "SHiP-mem", mk: func() cachesim.Policy { return policy.NewSHiPMem(4) }},
	{name: "GS-DRRIP", mk: func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
	{name: "GSPZTC", mk: gspc(core.VariantGSPZTC)},
	{name: "GSPZTC-TSE", mk: gspc(core.VariantGSPZTCTSE)},
	{name: "GSPC", mk: gspc(core.VariantGSPC)},
	{name: "GSPC-UCD", ucd: true, mk: gspc(core.VariantGSPC)},
	{name: "DRRIP-UCD", ucd: true, mk: drrip},
}

// gpuPolicies are the Figure 15 policies on the timing model.
var gpuPolicies = []policyDef{
	{name: "DRRIP-UCD", ucd: true, mk: drrip},
	{name: "NRU-UCD", ucd: true, mk: func() cachesim.Policy { return policy.NewNRU() }},
	{name: "GS-DRRIP-UCD", ucd: true, mk: func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
	{name: "GSPC-UCD", ucd: true, mk: gspc(core.VariantGSPC)},
}

// paperColumns maps the harness's table columns of the figure means the
// paper_abs_err guard compares against to the probes' policy names.
var paperColumns = map[string]map[string]string{
	"fig1":  {"NRU": "NRU", "Belady": "Belady"},
	"fig12": {"GSPZTC+TSE": "GSPZTC-TSE", "GSPC+UCD": "GSPC-UCD"},
	"fig15": {"NRU": "NRU-UCD", "GSPC+UCD": "GSPC-UCD"},
}

// paperMean is one of the paper's figure means, against a probe policy.
type paperMean struct {
	fig, policy string
	value       float64
}

// paperMeans picks the paper_abs_err means out of harness.PaperClaims, in
// its order.
func paperMeans() []paperMean {
	var out []paperMean
	for _, c := range harness.PaperClaims() {
		if p, ok := paperColumns[c.Experiment][c.Column]; ok && c.Row == "MEAN" {
			out = append(out, paperMean{fig: c.Experiment, policy: p, value: c.Paper})
		}
	}
	return out
}

// probeResult holds what one probe pass measured.
type probeResult struct {
	lengths map[string]int
	// guards are the simulated metrics, which repeat exactly; timings
	// the host-time per-layer metrics.
	guards, timings map[string]float64
	// Per-app host nanoseconds for attribution: the synthesis of a frame
	// (GeneratePackedInto), one replay per policy (replay), one timing
	// simulation per policy (timing), Belady's next-use pass, the cost
	// of the analysis observer on one replay, and one trace-cache hit.
	synthNs    map[string]float64
	replayNs   map[string]map[string]float64
	timingNs   map[string]map[string]float64
	nextUseNs  map[string]float64
	observerNs map[string]float64
	hitNs      float64
}

// countSink discards LLC accesses, counting them.
type countSink struct{ n int64 }

func (c *countSink) Emit(stream.Access) { c.n++ }

// timed runs prep then f, reps times (at least once), and returns the
// median duration of f in nanoseconds.
func timed(reps int, prep, f func()) float64 {
	ds := make([]float64, max(reps, 1))
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ds)
}

// timedMin is timed keeping the fastest repetition.
func timedMin(reps int, prep, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < max(reps, 1); i++ {
		best = min(best, timed(1, prep, f))
	}
	return best
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runProbes synthesizes every app's frame at the spec's scale and
// replays it through each simulation layer's public constructors,
// recording one span per probe call when rec is non-nil.
func runProbes(spec probeSpec, rec *recorder) (*probeResult, error) {
	ctx := context.Background()
	geom := harness.Options{Scale: spec.scale, CapacityFactor: spec.capf}.Geometry(8 << 20)
	rcfg := rendercache.DefaultConfig().Scaled(spec.scale)
	r := &probeResult{
		lengths: map[string]int{}, guards: map[string]float64{}, timings: map[string]float64{},
		synthNs: map[string]float64{}, replayNs: map[string]map[string]float64{},
		timingNs: map[string]map[string]float64{}, nextUseNs: map[string]float64{},
		observerNs: map[string]float64{},
	}
	span := func(name, label string, start time.Time) { rec.record("probe", name, start, time.Now(), label) }

	var total, llc, requests, builds int64
	var buildNs, renderNs, packNs, hitNs float64
	replayNs := map[string]float64{}
	misses := map[string]int64{}
	var nextUseNs, observerNs, sampledNs float64
	var replayAllocs uint64
	gpuNs := map[string]float64{}
	var gpuAllocs uint64
	var cycles, rowHits, rowAll int64
	// figSums accumulates the per-app ratios behind the paper's figure
	// means, keyed "fig/policy".
	means := paperMeans()
	figSums := map[string]float64{}
	names := apps()

	for ai, app := range names {
		job := harness.Options{Apps: []string{app}, MaxFramesPerApp: 1}.Jobs()[0]

		// Synthesis of the packed trace: its cost per app feeds the
		// attribution of cold ops.
		tr := stream.NewTrace(trace.EstimateAccesses(job, spec.scale))
		t0 := time.Now()
		g := timed(1, nil, func() { trace.GeneratePackedInto(tr, job, spec.scale, rcfg) })
		span("probe.trace.generate", app, t0)
		n := tr.Len()
		r.lengths[app] = n
		r.synthNs[app] = g
		total += int64(n)
		if ai%synthEvery == 0 {
			// The synthesis layers one by one: build the frame, render it
			// through the render caches into a discarding sink, and append
			// the frame's records to a packed trace. Each is the fastest of
			// synthReps repetitions.
			var sink countSink
			var rc *rendercache.Complex
			var frame *pipeline.Frame
			t0 = time.Now()
			b := timedMin(synthReps, nil, func() { frame = job.Build(spec.scale) })
			span("probe.workload.build", app, t0)
			t0 = time.Now()
			rn := timedMin(synthReps, func() {
				frame = job.Build(spec.scale)
				sink = countSink{}
				rc = rendercache.New(rcfg, &sink)
			}, func() { pipeline.NewRenderer(rc).RenderFrame(frame) })
			span("probe.pipeline.render", app, t0)
			packed := stream.NewTrace(n)
			t0 = time.Now()
			pk := timedMin(synthReps, packed.Reset, func() {
				for i := 0; i < n; i++ {
					packed.Append(tr.At(i))
				}
			})
			span("probe.trace.pack", app, t0)
			for name, st := range rc.Stats() {
				// The complex's requests are the accesses to its first-level
				// caches; the texture L2 and L3 see only L1 misses.
				if name != "texL2" && name != "texL3" {
					requests += st.Accesses
				}
			}
			llc += sink.n
			builds++
			buildNs += b
			renderNs += rn
			packNs += pk
		}

		// Trace cache: a warm lookup of this frame.
		tc := tracecache.New(harness.DefaultTraceCacheBytes)
		key := tracecache.Key{Job: job.ID(), Scale: spec.scale, Config: rcfg.Digest()}
		synth := func(context.Context) (*stream.Trace, error) { return tr, nil }
		if _, err := tc.Get(ctx, key, synth); err != nil {
			return nil, err
		}
		const lookups = 2000
		t0 = time.Now()
		h := timed(replayReps, nil, func() {
			for i := 0; i < lookups; i++ {
				tc.Get(ctx, key, synth)
			}
		}) / lookups
		span("probe.tracecache.hit", app, t0)
		hitNs += h

		// LLC replay, one cache per policy as the harness builds them.
		r.replayNs[app] = map[string]float64{}
		appMiss := map[string]int64{}
		replay := func(c *cachesim.Cache) {
			if err := cachesim.ReplaySource(ctx, c, tr, 0); err != nil {
				panic(err) // the background context never cancels
			}
		}
		for _, p := range replayPolicies {
			var c *cachesim.Cache
			t0 = time.Now()
			d := timed(replayReps, func() {
				c = cachesim.New(geom, p.mk())
				c.SetBypass(stream.Display, p.ucd)
			}, func() { replay(c) })
			span("probe.replay."+p.name, app, t0)
			r.replayNs[app][p.name] = d
			replayNs[p.name] += d
			appMiss[p.name] = c.Stats.Misses
		}
		var next []int64
		t0 = time.Now()
		nu := timed(replayReps, nil, func() { next = belady.NextUseTrace(tr, 6) })
		span("probe.belady.nextuse", app, t0)
		r.nextUseNs[app] = nu
		nextUseNs += nu
		var opt *cachesim.Cache
		t0 = time.Now()
		d := timed(replayReps, func() { opt = cachesim.New(geom, belady.NewOPT(next)) }, func() { replay(opt) })
		span("probe.replay.Belady", app, t0)
		r.replayNs[app]["Belady"] = d
		replayNs["Belady"] += d
		appMiss["Belady"] = opt.Stats.Misses
		for p, m := range appMiss {
			misses[p] += m
		}

		// The analysis observer every harness replay attaches.
		var obs *cachesim.Cache
		var allocs uint64
		t0 = time.Now()
		withObs := timed(replayReps, func() {
			obs = cachesim.New(geom, drrip())
			analysis.Attach(obs)
		}, func() {
			a0 := allocObjects()
			replay(obs)
			allocs = allocObjects() - a0
		})
		span("probe.analysis.observer", app, t0)
		r.observerNs[app] = withObs - r.replayNs[app]["DRRIP"]
		observerNs += r.observerNs[app]
		replayAllocs += allocs

		var sampled *cachesim.Cache
		t0 = time.Now()
		sampledNs += timed(replayReps, func() {
			sampled = cachesim.NewSampled(geom, drrip(), cachesim.SetSample{Ratio: 16, Seed: 1})
		}, func() { replay(sampled) })
		span("probe.replay.sampled", app, t0)

		// Timing model.
		r.timingNs[app] = map[string]float64{}
		appCycles := map[string]float64{}
		for i, p := range gpuPolicies {
			cfg := gpu.DefaultConfig(geom)
			cfg.UncachedDisplay = p.ucd
			var pol cachesim.Policy
			var res gpu.Result
			var a uint64
			t0 = time.Now()
			d := timed(1, func() { pol = p.mk() }, func() {
				a0 := allocObjects()
				res = gpu.SimulateSource(tr, cfg, pol)
				a = allocObjects() - a0
			})
			span("probe.gpu."+p.name, app, t0)
			r.timingNs[app][p.name] = d
			gpuNs[p.name] += d
			gpuAllocs += a
			appCycles[p.name] = float64(res.Cycles)
			if i == 0 {
				cycles += res.Cycles
				rowHits += res.DRAM.RowHits
				rowAll += res.DRAM.RowHits + res.DRAM.RowMisses + res.DRAM.RowConflicts
			}
		}

		missD := float64(appMiss["DRRIP"])
		for _, pm := range means {
			if pm.fig == "fig15" {
				figSums[pm.fig+"/"+pm.policy] += appCycles["DRRIP-UCD"] / appCycles[pm.policy]
			} else {
				figSums[pm.fig+"/"+pm.policy] += float64(appMiss[pm.policy]) / missD
			}
		}
	}

	apps := float64(len(names))
	r.hitNs = hitNs / apps
	g := r.guards
	g["trace.accesses_per_frame"] = float64(total) / apps
	g["rendercache.llc_per_request"] = float64(llc) / float64(requests)
	for p, m := range misses {
		g["replay.miss_ratio."+p] = float64(m) / float64(total)
	}
	g["gpu.cycles_per_frame"] = float64(cycles) / apps
	g["dram.row_hit_ratio"] = float64(rowHits) / float64(rowAll)
	var absErr float64
	for _, pm := range means {
		absErr += math.Abs(figSums[pm.fig+"/"+pm.policy]/apps - pm.value)
	}
	g["paper_abs_err"] = absErr / float64(len(means))

	t := r.timings
	t["workload.build_ms"] = buildNs / float64(builds) / 1e6
	t["pipeline.render_ns_per_llc_access"] = renderNs / float64(llc)
	t["trace.pack_ns_per_access"] = packNs / float64(llc)
	t["tracecache.hit_ns"] = r.hitNs
	for p, ns := range replayNs {
		t["replay.ns_per_access."+p] = ns / float64(total)
	}
	t["belady.nextuse_ns_per_access"] = nextUseNs / float64(total)
	t["analysis.observer_ns_per_access"] = observerNs / float64(total)
	t["replay.allocs_per_access"] = float64(replayAllocs) / float64(total)
	t["replay.sampled_ns_per_record"] = sampledNs / float64(total)
	for p, ns := range gpuNs {
		t["gpu.ns_per_access."+p] = ns / float64(total)
	}
	t["gpu.allocs_per_access"] = float64(gpuAllocs) / float64(total*int64(len(gpuPolicies)))
	return r, nil
}
