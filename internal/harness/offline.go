package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/panics"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
	"gspc/internal/workload"
)

// poolSynths counts trace acquisitions by forEachFrame worker pools;
// tests read it (after the pool is joined) to assert that an early
// return stops the workers instead of letting them acquire every
// remaining frame for a consumer that is gone.
var poolSynths atomic.Int64

// frameTrace pairs an acquired frame trace with its sampling plan (nil
// on exact-fidelity runs) for the worker-pool handoff.
type frameTrace struct {
	tr   *stream.Trace
	plan *samplePlan
}

// forEachFrame acquires each selected frame's packed LLC trace — from
// the shared frame-trace cache, synthesizing on a miss — and hands it to
// fn along with the run's sampling plan for that frame (nil for exact
// fidelity). Acquisition runs on a small worker pool; fn itself is
// called serially in suite order (experiment accumulators need no
// locking), so results are identical to a sequential run. Traces are
// shared with the cache and other runs: fn must treat them as read-only.
//
// The run's context is checked before each frame is acquired and again
// before fn runs; the first fn error (typically a cancellation surfaced
// by the per-access polls in cachesim.ReplaySource) stops the sweep.
// The pool works under a local context cancelled on every return — even
// when fn fails while the caller's context is still live — so workers
// never keep synthesizing for a consumer that is gone: they send nil
// placeholders into the buffered channels and exit, and forEachFrame
// joins them before returning, stranding no goroutine. A worker's
// cancelled cache lookup likewise yields a nil placeholder; the consumer
// translates any nil into the context's error. An acquisition that
// panics yields a nil placeholder too and cancels the pool, and once
// the pool is joined forEachFrame raises the first such panic again on
// the caller's goroutine (see panics.First).
func forEachFrame(o Options, fn func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error) error {
	o = o.normalized()
	ctx, cancel := context.WithCancel(o.ctx())
	defer cancel()
	jobs := o.Jobs()
	workers := o.replayWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			tr, plan, err := acquireFrame(ctx, o, j)
			if err != nil {
				return err
			}
			sp := telemetry.StartFrom(ctx, j.ID(), "frame")
			err = fn(j, tr, plan)
			sp.End()
			if err != nil {
				return err
			}
			o.progressf("  %s: %d LLC accesses\n", j.ID(), tr.Len())
		}
		return nil
	}

	traces := make([]chan frameTrace, len(jobs))
	for i := range traces {
		traces[i] = make(chan frameTrace, 1)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	var fault panics.First
	// Cancel before joining: the workers drain the remaining indices with
	// nil placeholder sends (never blocking — each buffered channel takes
	// exactly one send), so the join is prompt and bounded by at most one
	// in-flight synthesis per worker.
	defer func() {
		cancel()
		wg.Wait()
		fault.Raise()
	}()
	acquire := func(j workload.FrameJob) frameTrace {
		defer fault.Recover(cancel)
		tr, plan, err := acquireFrame(ctx, o, j)
		if err != nil {
			return frameTrace{}
		}
		return frameTrace{tr: tr, plan: plan}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil {
					traces[i] <- frameTrace{} // cancelled: unblock the consumer cheaply
					continue
				}
				poolSynths.Add(1)
				traces[i] <- acquire(jobs[i])
			}
		}()
	}
	for i, j := range jobs {
		ft := <-traces[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		if ft.tr == nil {
			// The worker's acquisition failed without the run context
			// dying first (e.g. a cancellation race); surface whichever
			// error the context now carries.
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("harness: trace acquisition failed for %s", j.ID())
		}
		sp := telemetry.StartFrom(ctx, j.ID(), "frame")
		err := fn(j, ft.tr, ft.plan)
		sp.End()
		if err != nil {
			return err
		}
		o.progressf("  %s: %d LLC accesses\n", j.ID(), ft.tr.Len())
	}
	return nil
}

// RunTable1 reproduces Table 1: the application suite.
func RunTable1(o Options) (*Table, error) {
	t := &Table{
		Title:   "Table 1: DirectX applications (DirectX version, width, height, frames in suite)",
		Columns: []string{"DirectX", "Width", "Height", "Frames"},
	}
	for _, p := range workload.Profiles() {
		t.AddRow(p.Abbrev, float64(p.DirectX), float64(p.Width), float64(p.Height), float64(p.Frames))
	}
	t.Notes = append(t.Notes, "52 frames total, three resolutions, DirectX 10 and 11, as in the paper")
	return t, nil
}

// RunTable6 reproduces Table 6: the evaluated policy registry.
func RunTable6(o Options) (*Table, error) {
	t := &Table{Title: "Table 6: evaluated policies (see internal/policy and internal/core)"}
	t.Columns = []string{"statebits"}
	for _, e := range []struct {
		name string
		bits float64
	}{
		{"DRRIP (dynamic re-reference interval prediction)", 2},
		{"NRU (single-bit not-recently-used)", 1},
		{"SHiP-mem (memory signature-based hit prediction)", 3},
		{"GS-DRRIP (graphics stream-aware DRRIP)", 2},
		{"GSPZTC (probabilistic Z and texture caching)", 4},
		{"GSPZTC+TSE (adds texture sampler epochs)", 4},
		{"GSPC (graphics stream-aware probabilistic caching)", 4},
		{"GSPC+UCD (GSPC, uncached displayable color)", 4},
		{"DRRIP+UCD (DRRIP, uncached displayable color)", 2},
	} {
		t.AddRow(e.name, e.bits)
	}
	return t, nil
}

// perApp walks the suite and sums, per application, the counters frame
// returns for each of its frames. It is the one frame loop every suite
// experiment runs; the sums stay integers until the cell formulas, so
// they do not depend on accumulation order.
func perApp(o Options, frame func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) ([]int64, error)) (map[string][]int64, error) {
	sums := map[string][]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		vals, err := frame(j, tr, plan)
		if err != nil {
			return err
		}
		a := sums[j.App.Abbrev]
		if a == nil {
			a = make([]int64, len(vals))
			sums[j.App.Abbrev] = a
		}
		for i, v := range vals {
			a[i] += v
		}
		return nil
	})
	return sums, err
}

// sweep replays every selected frame under specs and sums, per
// application, the counters collect draws from each frame's results. A
// frame's replays all read its one shared packed trace and fan out over
// the options' worker budget in spec order; results are positional, so
// rs[i] belongs to specs[i] however the goroutines interleave. With
// track set every replay carries an analysis tracker.
func sweep(o Options, geom cachesim.Geometry, specs []policySpec, track bool, collect func(rs []frameResult) []int64) (map[string][]int64, error) {
	return perApp(o, func(_ workload.FrameJob, tr *stream.Trace, plan *samplePlan) ([]int64, error) {
		rs := make([]frameResult, len(specs))
		err := fanOut(o.ctx(), o.replayWorkers(), len(specs), func(ctx context.Context, i int) error {
			var err error
			rs[i], err = runOffline(ctx, tr, specs[i], geom, plan, track)
			return err
		})
		if err != nil {
			return nil, err
		}
		return collect(rs), nil
	})
}

// misses collects each replay's miss count.
func misses(rs []frameResult) []int64 {
	m := make([]int64, len(rs))
	for i, r := range rs {
		m[i] = r.stats.Misses
	}
	return m
}

// specNames returns the specs' names, the columns of a per-policy table.
func specNames(specs []policySpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// normalizedMissTable replays DRRIP and then specs over the suite and
// tabulates each spec's per-app misses normalized to DRRIP's.
func normalizedMissTable(o Options, geom cachesim.Geometry, title string, specs []policySpec, notes ...string) (*Table, error) {
	sums, err := sweep(o, geom, append([]policySpec{specDRRIP()}, specs...), noTracker, misses)
	if err != nil {
		return nil, err
	}
	return appTable(title, specNames(specs), appOrder(o.Jobs()), func(ab string) []float64 {
		m := sums[ab]
		vals := make([]float64, len(specs))
		for i := range vals {
			vals[i] = float64(m[i+1]) / float64(m[0])
		}
		return vals
	}, notes...), nil
}

// RunFig1 reproduces Figure 1: NRU and Belady's optimal LLC miss counts
// normalized to two-bit DRRIP on the 8 MB LLC.
func RunFig1(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Figure 1: LLC misses normalized to DRRIP (LLC %s)", geom),
		[]policySpec{specNRU(), specBelady()},
		"paper: NRU 1.062, Belady 0.634 on average")
}

// RunFig4 reproduces Figure 4: the stream-wise distribution of LLC
// accesses.
func RunFig4(o Options) (*Table, error) {
	mix, err := perApp(o, func(_ workload.FrameJob, tr *stream.Trace, plan *samplePlan) ([]int64, error) {
		// Sampled runs scan only the measured window — the distribution is
		// reported in percent, so the extrapolation factor cancels.
		lo := 0
		if plan != nil {
			lo = plan.measStart
		}
		m := make([]int64, stream.NumKinds)
		for i, n := lo, tr.Len(); i < n; i++ {
			m[tr.KindAt(i)]++
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, k := range stream.Kinds() {
		cols = append(cols, k.String())
	}
	return appTable("Figure 4: stream-wise distribution of LLC accesses (percent)", cols, appOrder(o.Jobs()),
		func(ab string) []float64 {
			m := mix[ab]
			var tot int64
			for _, v := range m {
				tot += v
			}
			vals := make([]float64, len(m))
			for k, v := range m {
				vals[k] = 100 * float64(v) / float64(tot)
			}
			return vals
		},
		"paper averages: rt 40, texture 34, z >=10, hiz 7, vertex 4, rest ~5"), nil
}

// RunFig5 reproduces Figure 5: texture sampler, render target, and Z hit
// rates under Belady, DRRIP, and NRU.
func RunFig5(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	kinds := []stream.Kind{stream.Texture, stream.RT, stream.Z}
	// Per policy, per stream: hits then accesses.
	sums, err := sweep(o, geom, []policySpec{specBelady(), specDRRIP(), specNRU()}, withTracker, func(rs []frameResult) []int64 {
		var v []int64
		for _, r := range rs {
			for _, k := range kinds {
				v = append(v, r.tracker.KindHits(k), r.tracker.KindAccesses(k))
			}
		}
		return v
	})
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 5: per-stream hit rates, percent (LLC %s)", geom),
		[]string{
			"tex/Bel", "tex/DRRIP", "tex/NRU",
			"rt/Bel", "rt/DRRIP", "rt/NRU",
			"z/Bel", "z/DRRIP", "z/NRU",
		},
		appOrder(o.Jobs()),
		func(ab string) []float64 {
			a := sums[ab]
			vals := make([]float64, 9)
			for si := 0; si < 3; si++ {
				for pi := 0; pi < 3; pi++ {
					c := 2 * (pi*3 + si)
					vals[si*3+pi] = ratioPct(a[c], a[c+1])
				}
			}
			return vals
		},
		"paper averages: texture 53.4/22.0/18.4, rt 59.8/50.1/41.5, z 77.1/~58/~58 (Belady/DRRIP/NRU)"), nil
}

// RunFig6 reproduces Figure 6: the split of texture sampler hits into
// inter- and intra-stream reuse (normalized to Belady's hits) and the
// fraction of render target blocks consumed by the samplers.
func RunFig6(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	// Per policy: inter, intra, produced, consumed.
	sums, err := sweep(o, geom, []policySpec{specBelady(), specDRRIP(), specNRU()}, withTracker, func(rs []frameResult) []int64 {
		var v []int64
		for _, r := range rs {
			v = append(v, r.tracker.InterTexHits, r.tracker.IntraTexHits, r.tracker.RTProduced, r.tracker.RTConsumed)
		}
		return v
	})
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 6: texture reuse split (%% of Belady hits) and RT consumption %% (LLC %s)", geom),
		[]string{
			"inter/Bel", "intra/Bel", "inter/DRRIP", "intra/DRRIP", "inter/NRU", "intra/NRU",
			"cons/Bel", "cons/DRRIP", "cons/NRU",
		},
		appOrder(o.Jobs()),
		func(ab string) []float64 {
			a := sums[ab]
			optHits := float64(a[0] + a[1])
			if optHits == 0 {
				optHits = 1
			}
			return []float64{
				100 * float64(a[0]) / optHits, 100 * float64(a[1]) / optHits,
				100 * float64(a[4]) / optHits, 100 * float64(a[5]) / optHits,
				100 * float64(a[8]) / optHits, 100 * float64(a[9]) / optHits,
				ratioPct(a[3], a[2]), ratioPct(a[7], a[6]), ratioPct(a[11], a[10]),
			}
		},
		"paper: 55% of Belady's texture hits are inter-stream; RT consumption 51/16/13% (Belady/DRRIP/NRU)"), nil
}

// RunFig7 reproduces Figure 7: the epoch-wise distribution of
// intra-stream texture hits and per-epoch death ratios under Belady.
func RunFig7(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	// Four epoch hit counts, then five epoch entry counts.
	sums, err := sweep(o, geom, []policySpec{specBelady()}, withTracker, func(rs []frameResult) []int64 {
		tk := rs[0].tracker
		return append(append([]int64(nil), tk.TexEpochHits[:]...), tk.TexEntries[:]...)
	})
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 7: texture epochs under Belady (LLC %s)", geom),
		[]string{
			"hit%E0", "hit%E1", "hit%E2", "hit%E3+",
			"death E0", "death E1", "death E2",
		},
		appOrder(o.Jobs()),
		func(ab string) []float64 {
			hits, entries := sums[ab][:4], sums[ab][4:]
			var totHits int64
			for _, h := range hits {
				totHits += h
			}
			if totHits == 0 {
				totHits = 1
			}
			return []float64{
				100 * float64(hits[0]) / float64(totHits),
				100 * float64(hits[1]) / float64(totHits),
				100 * float64(hits[2]) / float64(totHits),
				100 * float64(hits[3]) / float64(totHits),
				death(entries, 0), death(entries, 1), death(entries, 2),
			}
		},
		"paper: hits 79/15/4/2%, death ratios 0.81/0.73/0.53"), nil
}

func death(entries []int64, k int) float64 {
	if entries[k] == 0 {
		return 0
	}
	return float64(entries[k]-entries[k+1]) / float64(entries[k])
}

// RunFig8 reproduces Figure 8: the percentage of render target and
// texture fills inserted with RRPV=3 by two-bit DRRIP.
func RunFig8(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	// RT (with display) fills and distant fills, then texture's.
	sums, err := sweep(o, geom, []policySpec{specDRRIP()}, noTracker, func(rs []frameResult) []int64 {
		d := rs[0].drrip
		return []int64{
			d.fills[stream.RT] + d.fills[stream.Display], d.distant[stream.RT] + d.distant[stream.Display],
			d.fills[stream.Texture], d.distant[stream.Texture],
		}
	})
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 8: %% of fills with RRPV=3 under DRRIP (LLC %s)", geom),
		[]string{"RT", "texture"}, appOrder(o.Jobs()),
		func(ab string) []float64 {
			a := sums[ab]
			return []float64{ratioPct(a[1], a[0]), ratioPct(a[3], a[2])}
		},
		"paper averages: RT ~25%, texture ~36%"), nil
}

// RunFig9 reproduces Figure 9: Z stream epoch death ratios under Belady.
func RunFig9(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	sums, err := sweep(o, geom, []policySpec{specBelady()}, withTracker, func(rs []frameResult) []int64 {
		return rs[0].tracker.ZEntries[:]
	})
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 9: Z epoch death ratios under Belady (LLC %s)", geom),
		[]string{"death E0", "death E1", "death E2"}, appOrder(o.Jobs()),
		func(ab string) []float64 {
			a := sums[ab]
			return []float64{death(a, 0), death(a, 1), death(a, 2)}
		},
		"paper: 0.61/0.38/0.26 — declining, unlike the texture stream"), nil
}

// RunFig11 reproduces Figure 11: GSPZTC's sensitivity to the threshold
// parameter t, reported as percent change in LLC misses relative to t=16.
func RunFig11(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	var specs []policySpec
	for _, t := range []int{2, 4, 8, 16} {
		specs = append(specs, specGSPC(core.VariantGSPZTC, t, false))
	}
	miss, err := sweep(o, geom, specs, noTracker, misses)
	if err != nil {
		return nil, err
	}
	return appTable(fmt.Sprintf("Figure 11: GSPZTC misses, %% change vs t=16 (LLC %s)", geom),
		[]string{"t=2", "t=4", "t=8"}, appOrder(o.Jobs()),
		func(ab string) []float64 {
			a := miss[ab]
			base := float64(a[3])
			return []float64{
				100 * (float64(a[0]) - base) / base,
				100 * (float64(a[1]) - base) / base,
				100 * (float64(a[2]) - base) / base,
			}
		},
		"paper: near-flat on average; t=8 the most robust"), nil
}

// fig12Specs returns the eight policies of Figure 12 in plot order.
func fig12Specs() []policySpec {
	return []policySpec{
		specNRU(),
		{name: "SHiP-mem", make: func() cachesim.Policy { return policy.NewSHiPMem(4) }},
		{name: "GS-DRRIP", make: func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPZTC, 8, false),
		specGSPC(core.VariantGSPZTCTSE, 8, false),
		specGSPC(core.VariantGSPC, 8, false),
		specGSPC(core.VariantGSPC, 8, true),
		{name: "DRRIP+UCD", ucd: true, make: func() cachesim.Policy { return policy.NewDRRIP(2) }},
	}
}

// RunFig12 reproduces Figure 12: LLC miss counts for all evaluated
// policies normalized to two-bit DRRIP.
func RunFig12(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Figure 12: LLC misses normalized to DRRIP (LLC %s)", geom), fig12Specs(),
		"paper means: NRU 1.062, SHiP-mem ~1.0, GS-DRRIP 0.971, GSPZTC 0.952, GSPZTC+TSE 0.885, GSPC ~0.88, GSPC+UCD 0.869, DRRIP+UCD ~1.0")
}

// RunFig13 reproduces Figure 13: suite-average texture hit rate, RT
// consumption rate, RT (blending) hit rate, and Z hit rate per policy.
func RunFig13(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	specs := []policySpec{
		specDRRIP(),
		{name: "GS-DRRIP", make: func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPZTC, 8, false),
		specGSPC(core.VariantGSPZTCTSE, 8, false),
		specGSPC(core.VariantGSPC, 8, false),
		specGSPC(core.VariantGSPC, 8, true),
		specBelady(),
	}
	// Per policy, four (numerator, denominator) pairs, one per column.
	const per = 8
	sums, err := sweep(o, geom, specs, withTracker, func(rs []frameResult) []int64 {
		var v []int64
		for _, r := range rs {
			tk := r.tracker
			v = append(v,
				tk.KindHits(stream.Texture), tk.KindAccesses(stream.Texture),
				tk.RTConsumed, tk.RTProduced,
				tk.ReadHits[stream.RT], tk.ReadAccesses[stream.RT],
				tk.KindHits(stream.Z), tk.KindAccesses(stream.Z))
		}
		return v
	})
	if err != nil {
		return nil, err
	}
	suite := make([]int64, per*len(specs))
	for _, a := range sums {
		for i, v := range a {
			suite[i] += v
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 13: suite-average stream metrics, percent (LLC %s)", geom),
		Columns: []string{"tex hit", "rt->tex cons", "rt read hit", "z hit"},
	}
	for i, s := range specs {
		a := suite[per*i:]
		t.AddRow(s.name, ratioPct(a[0], a[1]), ratioPct(a[2], a[3]), ratioPct(a[4], a[5]), ratioPct(a[6], a[7]))
	}
	t.Notes = append(t.Notes,
		"paper: metrics rise monotonically along GSPZTC -> GSPZTC+TSE; GSPC trades a little consumption for fewer misses; GS-DRRIP has the best z hit rate; GSPC rt hit 57.7 vs Belady 59.8")
	return t, nil
}

// RunFig14 reproduces Figure 14: policies with identical replacement
// state overhead (four bits per block) normalized to two-bit DRRIP.
func RunFig14(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	specs := []policySpec{
		{name: "LRU", make: func() cachesim.Policy { return policy.NewLRU() }},
		{name: "DRRIP-4", make: func() cachesim.Policy { return policy.NewDRRIP(4) }},
		{name: "GS-DRRIP-4", make: func() cachesim.Policy { return policy.NewGSDRRIP(4) }},
		specGSPC(core.VariantGSPC, 8, true),
	}
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Figure 14: iso-overhead policies vs 2-bit DRRIP (LLC %s)", geom), specs,
		"paper means: LRU 1.072, DRRIP-4 0.996, GS-DRRIP-4 0.983, GSPC 0.882")
}

func ratioPct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
