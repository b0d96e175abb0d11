package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gspc/internal/cachesim"
	"gspc/internal/core"
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
// translates any nil into the context's error.
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
	// Cancel before joining: the workers drain the remaining indices with
	// nil placeholder sends (never blocking — each buffered channel takes
	// exactly one send), so the join is prompt and bounded by at most one
	// in-flight synthesis per worker.
	defer func() {
		cancel()
		wg.Wait()
	}()
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
				tr, plan, err := acquireFrame(ctx, o, jobs[i])
				if err != nil {
					tr, plan = nil, nil
				}
				traces[i] <- frameTrace{tr: tr, plan: plan}
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

// RunFig1 reproduces Figure 1: NRU and Belady's optimal LLC miss counts
// normalized to two-bit DRRIP on the 8 MB LLC.
func RunFig1(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	missD := map[string]int64{}
	missN := map[string]int64{}
	missO := map[string]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		ab := j.App.Abbrev
		var rs [3]frameResult
		err := fanOut(o.ctx(), o.replayWorkers(), 3, func(ctx context.Context, i int) error {
			var err error
			switch i {
			case 0:
				rs[0], err = runOffline(ctx, tr, specDRRIP(), geom, plan, noTracker)
			case 1:
				rs[1], err = runOffline(ctx, tr, specNRU(), geom, plan, noTracker)
			case 2:
				rs[2], err = runBelady(ctx, tr, geom, plan, noTracker)
			}
			return err
		})
		if err != nil {
			return err
		}
		missD[ab] += rs[0].stats.Misses
		missN[ab] += rs[1].stats.Misses
		missO[ab] += rs[2].stats.Misses
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 1: LLC misses normalized to DRRIP (LLC %s)", geom),
		Columns: []string{"NRU", "Belady"},
	}
	order := appOrder(o.Jobs())
	rn, ro := map[string]float64{}, map[string]float64{}
	for _, ab := range order {
		rn[ab] = float64(missN[ab]) / float64(missD[ab])
		ro[ab] = float64(missO[ab]) / float64(missD[ab])
		t.AddRow(ab, rn[ab], ro[ab])
	}
	t.AddRow("MEAN", meanOf(rn, order), meanOf(ro, order))
	t.Notes = append(t.Notes, "paper: NRU 1.062, Belady 0.634 on average")
	return t, nil
}

// RunFig4 reproduces Figure 4: the stream-wise distribution of LLC
// accesses.
func RunFig4(o Options) (*Table, error) {
	mix := map[string][stream.NumKinds]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		// Sampled runs scan only the measured window — the distribution is
		// reported in percent, so the extrapolation factor cancels.
		lo := 0
		if plan != nil {
			lo = plan.measStart
		}
		m := mix[j.App.Abbrev]
		for i, n := lo, tr.Len(); i < n; i++ {
			m[tr.KindAt(i)]++
		}
		mix[j.App.Abbrev] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 4: stream-wise distribution of LLC accesses (percent)"}
	for _, k := range stream.Kinds() {
		t.Columns = append(t.Columns, k.String())
	}
	order := appOrder(o.Jobs())
	var totals [stream.NumKinds]float64
	for _, ab := range order {
		m := mix[ab]
		var tot int64
		for _, v := range m {
			tot += v
		}
		vals := make([]float64, stream.NumKinds)
		for k, v := range m {
			vals[k] = 100 * float64(v) / float64(tot)
			totals[k] += vals[k]
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, stream.NumKinds)
	for k := range means {
		means[k] = totals[k] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes, "paper averages: rt 40, texture 34, z >=10, hiz 7, vertex 4, rest ~5")
	return t, nil
}

// RunFig5 reproduces Figure 5: texture sampler, render target, and Z hit
// rates under Belady, DRRIP, and NRU.
func RunFig5(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	type acc struct{ hit, tot [3][3]int64 } // [policy][stream]
	per := map[string]*acc{}
	kinds := []stream.Kind{stream.Texture, stream.RT, stream.Z}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := per[j.App.Abbrev]
		if a == nil {
			a = &acc{}
			per[j.App.Abbrev] = a
		}
		results, err := runBDN(o, tr, geom, plan)
		if err != nil {
			return err
		}
		for pi, r := range results {
			for si, k := range kinds {
				a.hit[pi][si] += r.tracker.KindHits(k)
				a.tot[pi][si] += r.tracker.KindAccesses(k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 5: per-stream hit rates, percent (LLC %s)", geom),
		Columns: []string{
			"tex/Bel", "tex/DRRIP", "tex/NRU",
			"rt/Bel", "rt/DRRIP", "rt/NRU",
			"z/Bel", "z/DRRIP", "z/NRU",
		},
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, 9)
	for _, ab := range order {
		a := per[ab]
		vals := make([]float64, 9)
		for si := 0; si < 3; si++ {
			for pi := 0; pi < 3; pi++ {
				v := 0.0
				if a.tot[pi][si] > 0 {
					v = 100 * float64(a.hit[pi][si]) / float64(a.tot[pi][si])
				}
				vals[si*3+pi] = v
				sums[si*3+pi] += v
			}
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, 9)
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes,
		"paper averages: texture 53.4/22.0/18.4, rt 59.8/50.1/41.5, z 77.1/~58/~58 (Belady/DRRIP/NRU)")
	return t, nil
}

// RunFig6 reproduces Figure 6: the split of texture sampler hits into
// inter- and intra-stream reuse (normalized to Belady's hits) and the
// fraction of render target blocks consumed by the samplers.
func RunFig6(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	type acc struct {
		inter, intra [3]int64
		prod, cons   [3]int64
	}
	per := map[string]*acc{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := per[j.App.Abbrev]
		if a == nil {
			a = &acc{}
			per[j.App.Abbrev] = a
		}
		results, err := runBDN(o, tr, geom, plan)
		if err != nil {
			return err
		}
		for pi, r := range results {
			a.inter[pi] += r.tracker.InterTexHits
			a.intra[pi] += r.tracker.IntraTexHits
			a.prod[pi] += r.tracker.RTProduced
			a.cons[pi] += r.tracker.RTConsumed
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 6: texture reuse split (%% of Belady hits) and RT consumption %% (LLC %s)", geom),
		Columns: []string{
			"inter/Bel", "intra/Bel", "inter/DRRIP", "intra/DRRIP", "inter/NRU", "intra/NRU",
			"cons/Bel", "cons/DRRIP", "cons/NRU",
		},
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, 9)
	for _, ab := range order {
		a := per[ab]
		optHits := float64(a.inter[0] + a.intra[0])
		if optHits == 0 {
			optHits = 1
		}
		vals := []float64{
			100 * float64(a.inter[0]) / optHits, 100 * float64(a.intra[0]) / optHits,
			100 * float64(a.inter[1]) / optHits, 100 * float64(a.intra[1]) / optHits,
			100 * float64(a.inter[2]) / optHits, 100 * float64(a.intra[2]) / optHits,
			ratioPct(a.cons[0], a.prod[0]), ratioPct(a.cons[1], a.prod[1]), ratioPct(a.cons[2], a.prod[2]),
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, len(sums))
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes,
		"paper: 55% of Belady's texture hits are inter-stream; RT consumption 51/16/13% (Belady/DRRIP/NRU)")
	return t, nil
}

// RunFig7 reproduces Figure 7: the epoch-wise distribution of
// intra-stream texture hits and per-epoch death ratios under Belady.
func RunFig7(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	type acc struct {
		hits    [4]int64
		entries [5]int64
	}
	per := map[string]*acc{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := per[j.App.Abbrev]
		if a == nil {
			a = &acc{}
			per[j.App.Abbrev] = a
		}
		r, err := runBelady(o.ctx(), tr, geom, plan, withTracker)
		if err != nil {
			return err
		}
		for e := 0; e < 4; e++ {
			a.hits[e] += r.tracker.TexEpochHits[e]
		}
		for e := 0; e < 5; e++ {
			a.entries[e] += r.tracker.TexEntries[e]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 7: texture epochs under Belady (LLC %s)", geom),
		Columns: []string{
			"hit%E0", "hit%E1", "hit%E2", "hit%E3+",
			"death E0", "death E1", "death E2",
		},
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, 7)
	for _, ab := range order {
		a := per[ab]
		var totHits int64
		for _, h := range a.hits {
			totHits += h
		}
		if totHits == 0 {
			totHits = 1
		}
		vals := []float64{
			100 * float64(a.hits[0]) / float64(totHits),
			100 * float64(a.hits[1]) / float64(totHits),
			100 * float64(a.hits[2]) / float64(totHits),
			100 * float64(a.hits[3]) / float64(totHits),
			death(a.entries[:], 0), death(a.entries[:], 1), death(a.entries[:], 2),
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, len(sums))
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes, "paper: hits 79/15/4/2%, death ratios 0.81/0.73/0.53")
	return t, nil
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
	type acc struct{ rtF, rtD, txF, txD int64 }
	per := map[string]*acc{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := per[j.App.Abbrev]
		if a == nil {
			a = &acc{}
			per[j.App.Abbrev] = a
		}
		r, err := runOffline(o.ctx(), tr, specDRRIP(), geom, plan, noTracker)
		if err != nil {
			return err
		}
		a.rtF += r.drrip.fills[stream.RT] + r.drrip.fills[stream.Display]
		a.rtD += r.drrip.distant[stream.RT] + r.drrip.distant[stream.Display]
		a.txF += r.drrip.fills[stream.Texture]
		a.txD += r.drrip.distant[stream.Texture]
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 8: %% of fills with RRPV=3 under DRRIP (LLC %s)", geom),
		Columns: []string{"RT", "texture"},
	}
	order := appOrder(o.Jobs())
	rt, tx := map[string]float64{}, map[string]float64{}
	for _, ab := range order {
		a := per[ab]
		rt[ab] = ratioPct(a.rtD, a.rtF)
		tx[ab] = ratioPct(a.txD, a.txF)
		t.AddRow(ab, rt[ab], tx[ab])
	}
	t.AddRow("MEAN", meanOf(rt, order), meanOf(tx, order))
	t.Notes = append(t.Notes, "paper averages: RT ~25%, texture ~36%")
	return t, nil
}

// RunFig9 reproduces Figure 9: Z stream epoch death ratios under Belady.
func RunFig9(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	per := map[string]*[5]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := per[j.App.Abbrev]
		if a == nil {
			a = &[5]int64{}
			per[j.App.Abbrev] = a
		}
		r, err := runBelady(o.ctx(), tr, geom, plan, withTracker)
		if err != nil {
			return err
		}
		for e := 0; e < 5; e++ {
			a[e] += r.tracker.ZEntries[e]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 9: Z epoch death ratios under Belady (LLC %s)", geom),
		Columns: []string{"death E0", "death E1", "death E2"},
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, 3)
	for _, ab := range order {
		a := per[ab]
		vals := []float64{death(a[:], 0), death(a[:], 1), death(a[:], 2)}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	t.AddRow("MEAN", sums[0]/float64(len(order)), sums[1]/float64(len(order)), sums[2]/float64(len(order)))
	t.Notes = append(t.Notes, "paper: 0.61/0.38/0.26 — declining, unlike the texture stream")
	return t, nil
}

// RunFig11 reproduces Figure 11: GSPZTC's sensitivity to the threshold
// parameter t, reported as percent change in LLC misses relative to t=16.
func RunFig11(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	ts := []int{2, 4, 8, 16}
	miss := map[string][]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		a := miss[j.App.Abbrev]
		if a == nil {
			a = make([]int64, len(ts))
		}
		rs := make([]frameResult, len(ts))
		err := fanOut(o.ctx(), o.replayWorkers(), len(ts), func(ctx context.Context, i int) error {
			var err error
			rs[i], err = runOffline(ctx, tr, specGSPC(core.VariantGSPZTC, ts[i], false), geom, plan, noTracker)
			return err
		})
		if err != nil {
			return err
		}
		for i := range ts {
			a[i] += rs[i].stats.Misses
		}
		miss[j.App.Abbrev] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 11: GSPZTC misses, %% change vs t=16 (LLC %s)", geom),
		Columns: []string{"t=2", "t=4", "t=8"},
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, 3)
	for _, ab := range order {
		a := miss[ab]
		base := float64(a[3])
		vals := []float64{
			100 * (float64(a[0]) - base) / base,
			100 * (float64(a[1]) - base) / base,
			100 * (float64(a[2]) - base) / base,
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	t.AddRow("MEAN", sums[0]/float64(len(order)), sums[1]/float64(len(order)), sums[2]/float64(len(order)))
	t.Notes = append(t.Notes, "paper: near-flat on average; t=8 the most robust")
	return t, nil
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
	specs := fig12Specs()
	missD, miss, err := missSweep(o, geom, specs)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: fmt.Sprintf("Figure 12: LLC misses normalized to DRRIP (LLC %s)", geom)}
	for _, s := range specs {
		t.Columns = append(t.Columns, s.name)
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, len(specs))
	for _, ab := range order {
		vals := make([]float64, len(specs))
		for i := range specs {
			vals[i] = float64(miss[ab][i]) / float64(missD[ab])
			sums[i] += vals[i]
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, len(specs))
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes,
		"paper means: NRU 1.062, SHiP-mem ~1.0, GS-DRRIP 0.971, GSPZTC 0.952, GSPZTC+TSE 0.885, GSPC ~0.88, GSPC+UCD 0.869, DRRIP+UCD ~1.0")
	return t, nil
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
	}
	accs := make([]fig13Acc, len(specs)+1) // +1 for Belady
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		rs := make([]frameResult, len(specs)+1)
		err := fanOut(o.ctx(), o.replayWorkers(), len(specs)+1, func(ctx context.Context, i int) error {
			var err error
			if i == len(specs) {
				rs[i], err = runBelady(ctx, tr, geom, plan, withTracker)
			} else {
				rs[i], err = runOffline(ctx, tr, specs[i], geom, plan, withTracker)
			}
			return err
		})
		if err != nil {
			return err
		}
		for i := range rs {
			collect13(&accs[i], rs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 13: suite-average stream metrics, percent (LLC %s)", geom),
		Columns: []string{"tex hit", "rt->tex cons", "rt read hit", "z hit"},
	}
	for i := range specs {
		a := &accs[i]
		t.AddRow(specs[i].name,
			ratioPct(a.texHit, a.texTot), ratioPct(a.cons, a.prod),
			ratioPct(a.rtHit, a.rtTot), ratioPct(a.zHit, a.zTot))
	}
	a := &accs[len(specs)]
	t.AddRow("Belady",
		ratioPct(a.texHit, a.texTot), ratioPct(a.cons, a.prod),
		ratioPct(a.rtHit, a.rtTot), ratioPct(a.zHit, a.zTot))
	t.Notes = append(t.Notes,
		"paper: metrics rise monotonically along GSPZTC -> GSPZTC+TSE; GSPC trades a little consumption for fewer misses; GS-DRRIP has the best z hit rate; GSPC rt hit 57.7 vs Belady 59.8")
	return t, nil
}

// fig13Acc accumulates the four Figure 13 metrics for one policy.
type fig13Acc struct {
	texHit, texTot int64
	cons, prod     int64
	rtHit, rtTot   int64
	zHit, zTot     int64
}

func collect13(a *fig13Acc, r frameResult) {
	a.texHit += r.tracker.KindHits(stream.Texture)
	a.texTot += r.tracker.KindAccesses(stream.Texture)
	a.cons += r.tracker.RTConsumed
	a.prod += r.tracker.RTProduced
	a.rtHit += r.tracker.ReadHits[stream.RT]
	a.rtTot += r.tracker.ReadAccesses[stream.RT]
	a.zHit += r.tracker.KindHits(stream.Z)
	a.zTot += r.tracker.KindAccesses(stream.Z)
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
	missD, miss, err := missSweep(o, geom, specs)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: fmt.Sprintf("Figure 14: iso-overhead policies vs 2-bit DRRIP (LLC %s)", geom)}
	for _, s := range specs {
		t.Columns = append(t.Columns, s.name)
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, len(specs))
	for _, ab := range order {
		vals := make([]float64, len(specs))
		for i := range specs {
			vals[i] = float64(miss[ab][i]) / float64(missD[ab])
			sums[i] += vals[i]
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, len(specs))
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes, "paper means: LRU 1.072, DRRIP-4 0.996, GS-DRRIP-4 0.983, GSPC 0.882")
	return t, nil
}

// missSweep replays every selected frame under the DRRIP baseline and
// each spec, accumulating per-app miss counts. It is the shared first
// half of every normalized-miss figure. Each frame's replays — the
// baseline plus every spec, all over the one shared packed trace — fan
// out across the options' worker budget, and the sweep stops at the
// first cancellation surfaced by the replay loops.
func missSweep(o Options, geom cachesim.Geometry, specs []policySpec) (missD map[string]int64, miss map[string][]int64, err error) {
	missD = map[string]int64{}
	miss = map[string][]int64{}
	err = forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error {
		ab := j.App.Abbrev
		rs := make([]frameResult, len(specs)+1)
		err := fanOut(o.ctx(), o.replayWorkers(), len(specs)+1, func(ctx context.Context, i int) error {
			var err error
			if i == 0 {
				rs[0], err = runOffline(ctx, tr, specDRRIP(), geom, plan, noTracker)
			} else {
				rs[i], err = runOffline(ctx, tr, specs[i-1], geom, plan, noTracker)
			}
			return err
		})
		if err != nil {
			return err
		}
		missD[ab] += rs[0].stats.Misses
		a := miss[ab]
		if a == nil {
			a = make([]int64, len(specs))
		}
		for i := range specs {
			a[i] += rs[i+1].stats.Misses
		}
		miss[ab] = a
		return nil
	})
	return missD, miss, err
}

func ratioPct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
