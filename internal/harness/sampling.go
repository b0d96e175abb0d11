package harness

import (
	"context"
	"math"
	"sync"

	"gspc/internal/analysis"
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

// Fidelity values for Options.Fidelity: exact replays every access of
// the full frame trace (bit-identical to the pre-sampling behavior);
// sampled composes set sampling (simulate 1 in SampleSetRatio LLC sets)
// with interval sampling (synthesize and replay one representative
// window of the frame) and extrapolates the counters, trading a pinned
// error bound for an order-of-magnitude latency cut at full resolution.
const (
	FidelityExact   = "exact"
	FidelitySampled = "sampled"
)

// DefaultSampleSetRatio is the set-sampling ratio sampled runs use when
// Options.SampleSetRatio is unset: 1 in 16 sets.
const DefaultSampleSetRatio = 16

// Interval-sampling shape. Trace record count follows n(s) ≈ b + a·s²:
// a flat per-frame floor (state setup, low-LOD geometry that does not
// shrink with resolution) plus an area term, with the knee near scale
// 0.06. The profiling prepass therefore renders the frame at two fixed
// scales above the knee — profileScale1 and profileScale2, where the
// a·s² term is visible — fits both model coefficients, and extrapolates
// the full-scale record count. Profiles taken inside the floor region
// carry no growth signal (n is flat there), which is why the scales are
// absolute rather than a fraction of the target: interval sampling only
// engages at all when the target scale is at least minIntervalScale, so
// the profiles cost well under half of what they replace.
//
// The larger profile is split into windowIntervals equal intervals and
// the windowMeasured contiguous intervals whose stream-kind mix is
// closest (L1) to the whole frame's become the measured window. Trace
// synthesis costs ~1.2µs per record while replay costs ~70ns, so the
// run's cost is essentially the synthesized prefix [0, window end):
// later windows cost proportionally more — latenessPenalty biases the
// choice toward early windows and maxEndFrac caps the prefix so a
// sampled full-scale run stays cheaper than an exact quarter-scale one.
// The entire prefix before the measured window is replayed as warmup
// (counters discarded): it is already synthesized, and replaying it
// costs ~5% of what synthesizing it did.
const (
	profileScale1    = 0.0625
	profileScale2    = 0.125
	minIntervalScale = 0.25
	windowIntervals  = 128
	windowMeasured   = 4
	maxEndFrac       = 0.0625
	latenessPenalty  = 0.3
)

// sampled reports whether the (normalized) options request sampled
// fidelity.
func (o Options) sampled() bool { return o.Fidelity == FidelitySampled }

// samplePlan carries the per-frame sampling decisions from trace
// acquisition into the replay helpers: the set-sampling configuration,
// the warmup/measured boundaries inside the (prefix-truncated) trace,
// and the extrapolation factor. A nil plan means exact fidelity and
// leaves every code path bit-identical to the pre-sampling behavior.
type samplePlan struct {
	sample cachesim.SetSample
	// warmStart and measStart bound the replay: [warmStart, measStart)
	// warms the cache with counters discarded, [measStart, tr.Len())
	// is measured. warmStart == measStart == 0 measures the whole trace.
	warmStart, measStart int
	// fullEst is the estimated record count of the full (untruncated)
	// trace, extrapolated from the profiling prepass by the area ratio.
	fullEst float64
	// factor extrapolates measured-window counters to the full trace:
	// fullEst / measured-window records. Set-sampling scaling
	// (Cache.SampleFactor) composes on top.
	factor float64
	agg    *sampleAgg
}

// scaleFor returns the total counter scale for one finished replay.
func (p *samplePlan) scaleFor(c *cachesim.Cache) float64 {
	return p.factor * c.SampleFactor()
}

// observe folds one finished measured replay into the run's aggregate
// sampling report and the process telemetry counters.
func (p *samplePlan) observe(c *cachesim.Cache) {
	rep := c.SampleReport()
	measured := c.Stats.Accesses + c.Stats.SampledSkips
	telemetry.RecordSampledReplay(int64(rep.SampledSets), int64(rep.TotalSets),
		c.Stats.SampledSkips, c.Stats.Accesses)
	if p.agg == nil {
		return
	}
	winFrac := 0.0
	if p.fullEst > 0 {
		winFrac = float64(measured) / p.fullEst
	}
	p.agg.add(rep, winFrac)
}

// sampleAgg accumulates per-replay sampling reports across a whole
// experiment run; BuildResult turns it into the Result's SamplingReport.
type sampleAgg struct {
	mu          sync.Mutex
	replays     int64
	setsSim     int
	setsTot     int
	rseSum      float64
	winFracSum  float64
	rseMax      float64
	winFracUsed int64
}

func (a *sampleAgg) add(rep cachesim.SampleReport, winFrac float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.replays++
	a.setsSim = rep.SampledSets
	a.setsTot = rep.TotalSets
	a.rseSum += rep.RSE
	if rep.RSE > a.rseMax {
		a.rseMax = rep.RSE
	}
	if winFrac > 0 {
		a.winFracSum += winFrac
		a.winFracUsed++
	}
}

// report snapshots the aggregate for the serialized Result.
func (a *sampleAgg) report(o Options) *SamplingReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.replays == 0 {
		return nil
	}
	r := &SamplingReport{
		SetRatio:      o.SampleSetRatio,
		SetSeed:       o.SampleSeed,
		SetsSimulated: a.setsSim,
		SetsTotal:     a.setsTot,
		Replays:       a.replays,
		EstRelErr:     a.rseSum / float64(a.replays),
		MaxRelErr:     a.rseMax,
	}
	if a.winFracUsed > 0 {
		r.WindowFraction = a.winFracSum / float64(a.winFracUsed)
	}
	return r
}

// estimateFull extrapolates the full-trace record count from two
// profile lengths at scales s1 < s2 by fitting n(s) = b + a·s² — the
// floor-plus-area model the synthesizer empirically follows (within a
// few percent for every app at scales 0.25..1 when anchored at 0.0625
// and 0.125). Falls back to the plain area ratio when the points are
// degenerate, and never estimates below the larger profile.
func estimateFull(n1, n2 int, s1, s2, scale float64) float64 {
	f1, f2 := float64(n1), float64(n2)
	if s2 <= s1 || n2 <= n1 {
		return f2 * (scale / s2) * (scale / s2)
	}
	a := (f2 - f1) / (s2*s2 - s1*s1)
	b := f1 - a*s1*s1
	if b < 0 {
		b = 0
	}
	est := b + a*scale*scale
	if est < f2 {
		est = f2
	}
	return est
}

// windowPick is a measured window expressed as fractions of the full
// trace, as chosen from the profiling prepass. Everything before
// startFrac is warmup; nothing past endFrac is synthesized.
type windowPick struct {
	startFrac, endFrac float64
}

// pickWindow chooses the measured window from a profile trace: the
// windowMeasured contiguous intervals (of windowIntervals) whose
// stream-kind mix is L1-closest to the whole trace's, scored with a
// lateness penalty so that, other things near-equal, an earlier (and
// therefore cheaper to synthesize) window wins. Deterministic: ties
// break toward the earlier window.
func pickWindow(profile *stream.Trace) windowPick {
	n := profile.Len()
	if n < 4*windowIntervals {
		// Too short to split meaningfully: measure everything.
		return windowPick{startFrac: 0, endFrac: 1}
	}
	var counts [windowIntervals][stream.NumKinds]int64
	var totals [stream.NumKinds]int64
	for i := 0; i < n; i++ {
		b := int(int64(i) * windowIntervals / int64(n))
		k := profile.KindAt(i)
		counts[b][k]++
		totals[k]++
	}
	var global [stream.NumKinds]float64
	for k := range global {
		global[k] = float64(totals[k]) / float64(n)
	}
	bestStart, bestScore := 0, math.Inf(1)
	for cs := 0; cs+windowMeasured <= windowIntervals; cs++ {
		endFrac := float64(cs+windowMeasured) / windowIntervals
		if cs > 0 && endFrac > maxEndFrac {
			break
		}
		var win [stream.NumKinds]int64
		var winTot int64
		for i := cs; i < cs+windowMeasured; i++ {
			for k, v := range counts[i] {
				win[k] += v
				winTot += v
			}
		}
		if winTot == 0 {
			continue
		}
		dist := 0.0
		for k := range win {
			dist += math.Abs(float64(win[k])/float64(winTot) - global[k])
		}
		score := dist + latenessPenalty*endFrac
		if score < bestScore {
			bestStart, bestScore = cs, score
		}
	}
	return windowPick{
		startFrac: float64(bestStart) / windowIntervals,
		endFrac:   float64(bestStart+windowMeasured) / windowIntervals,
	}
}

// genTracePrefix synthesizes (through the trace cache) only the first
// limit records of a frame's trace. The prefix of a deterministic
// render is itself deterministic, so prefix traces cache under their
// own key (Key.Prefix) and are shared like full traces.
func genTracePrefix(ctx context.Context, o Options, j workload.FrameJob, limit int) (*stream.Trace, error) {
	o = o.normalized()
	cfg := rendercache.DefaultConfig().Scaled(o.Scale)
	key := tracecache.Key{Job: j.ID(), Scale: o.Scale, Config: cfg.Digest(), Prefix: limit}
	return o.traceCache().Get(ctx, key, func(ctx context.Context) (*stream.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		defer trackStage(ctx, pickSynth)()
		defer telemetry.StartFrom(ctx, "synthesize-prefix", "synth",
			telemetry.String("job", j.ID()), telemetry.Int("limit", int64(limit))).End()
		t := stream.NewTrace(limit)
		trace.GeneratePackedPrefix(t, j, o.Scale, cfg, limit)
		return t, nil
	})
}

// genTraceSampled acquires the trace and sampling plan for one frame of
// a sampled-fidelity run: profile the frame at a reduced scale, pick
// the representative window, synthesize the full-scale trace only up to
// the window's end, and return the replay boundaries plus extrapolation
// factor. Everything is derived from deterministic inputs (profile
// trace content, options), so identical options produce identical plans
// regardless of worker count or process history.
func genTraceSampled(ctx context.Context, o Options, j workload.FrameJob) (*stream.Trace, *samplePlan, error) {
	o = o.normalized()
	plan := &samplePlan{
		sample: cachesim.SetSample{Ratio: o.SampleSetRatio, Seed: o.SampleSeed},
		factor: 1,
		agg:    o.sampleAgg,
	}
	if o.Scale < minIntervalScale {
		// Below this scale the fixed-scale profiles would cost a large
		// fraction of (or more than) the run they are meant to shortcut,
		// so only set sampling applies, over the full trace.
		tr, err := genTrace(ctx, o, j)
		if err != nil {
			return nil, nil, err
		}
		plan.fullEst = float64(tr.Len())
		return tr, plan, nil
	}
	// Two fixed-scale profiles above the floor knee anchor the length
	// extrapolation (see estimateFull); the larger one, with better
	// interval resolution, picks the window. Both cache under their own
	// scale keys, so repeated sampled runs share them.
	po := o
	po.Scale = profileScale1
	prof1, err := genTrace(ctx, po, j)
	if err != nil {
		return nil, nil, err
	}
	po.Scale = profileScale2
	prof, err := genTrace(ctx, po, j)
	if err != nil {
		return nil, nil, err
	}
	pick := pickWindow(prof)
	fullEst := estimateFull(prof1.Len(), prof.Len(), profileScale1, profileScale2, o.Scale)
	plan.fullEst = fullEst
	if pick.endFrac >= 1 {
		tr, err := genTrace(ctx, o, j)
		if err != nil {
			return nil, nil, err
		}
		plan.fullEst = float64(tr.Len())
		return tr, plan, nil
	}
	limit := int(math.Ceil(pick.endFrac * fullEst))
	tr, err := genTracePrefix(ctx, o, j, limit)
	if err != nil {
		return nil, nil, err
	}
	l := tr.Len()
	// The whole prefix before the measured window is warmup — already
	// paid for in synthesis, nearly free to replay. Indices come from
	// the actual prefix length, not fullEst, so an over-estimated limit
	// (the prefix hit the real end of the trace) still yields a valid
	// window.
	plan.warmStart = 0
	plan.measStart = int(pick.startFrac / pick.endFrac * float64(l))
	if plan.measStart >= l {
		plan.measStart = 0
	}
	if measured := l - plan.measStart; measured > 0 {
		plan.factor = fullEst / float64(measured)
	}
	return tr, plan, nil
}

// acquireFrame returns a frame's trace plus the sampling plan replays
// should follow — a nil plan (exact fidelity) leaves every downstream
// path untouched.
func acquireFrame(ctx context.Context, o Options, j workload.FrameJob) (*stream.Trace, *samplePlan, error) {
	if o.sampled() {
		return genTraceSampled(ctx, o, j)
	}
	tr, err := genTrace(ctx, o, j)
	return tr, nil, err
}

// resetRunCounters marks the warmup/measured boundary: outcome counters
// on the cache, the analysis tracker, and the extractable policy
// counters are zeroed while cache contents and learned policy state
// carry over.
func resetRunCounters(c *cachesim.Cache, tk *analysis.Tracker, pol cachesim.Policy) {
	c.ResetCounters()
	if tk != nil {
		tk.ResetCounters()
	}
	switch p := pol.(type) {
	case *core.Policy:
		p.Insertions = core.InsertionStats{}
	case *policy.DRRIP:
		p.FillsByKind = [stream.NumKinds]int64{}
		p.DistantFillsByKind = [stream.NumKinds]int64{}
	}
}

// scale64 extrapolates one counter; round-to-nearest keeps ratios of
// scaled counters as close as possible to the ratios of the raw ones.
func scale64(v int64, f float64) int64 {
	if v == 0 || f == 1 {
		return v
	}
	return int64(math.Round(float64(v) * f))
}

func scaleKinds(a *[stream.NumKinds]int64, f float64) {
	for i := range a {
		a[i] = scale64(a[i], f)
	}
}

// scaleFrameResult extrapolates every counter a sampled replay produced
// to full-trace, full-set scale. SampledSkips stays raw: it documents
// the measurement, not the estimate.
func scaleFrameResult(r *frameResult, f float64) {
	if f == 1 {
		return
	}
	s := &r.stats
	s.Accesses = scale64(s.Accesses, f)
	s.Hits = scale64(s.Hits, f)
	s.Misses = scale64(s.Misses, f)
	s.Bypasses = scale64(s.Bypasses, f)
	s.Evictions = scale64(s.Evictions, f)
	s.Writebacks = scale64(s.Writebacks, f)
	scaleKinds(&s.KindAccesses, f)
	scaleKinds(&s.KindHits, f)
	scaleKinds(&s.KindMisses, f)
	if tk := r.tracker; tk != nil {
		scaleKinds(&tk.ReadAccesses, f)
		scaleKinds(&tk.ReadHits, f)
		scaleKinds(&tk.WriteAccesses, f)
		scaleKinds(&tk.WriteHits, f)
		tk.InterTexHits = scale64(tk.InterTexHits, f)
		tk.IntraTexHits = scale64(tk.IntraTexHits, f)
		tk.RTProduced = scale64(tk.RTProduced, f)
		tk.RTConsumed = scale64(tk.RTConsumed, f)
		for i := range tk.TexEpochHits {
			tk.TexEpochHits[i] = scale64(tk.TexEpochHits[i], f)
		}
		for i := range tk.TexEntries {
			tk.TexEntries[i] = scale64(tk.TexEntries[i], f)
		}
		for i := range tk.ZEntries {
			tk.ZEntries[i] = scale64(tk.ZEntries[i], f)
		}
	}
	scaleKinds(&r.drrip.fills, f)
	scaleKinds(&r.drrip.distant, f)
}
