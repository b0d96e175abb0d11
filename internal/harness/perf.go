package harness

import (
	"context"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/dram"
	"gspc/internal/gpu"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
	"gspc/internal/workload"
)

// perfSpecs are the policies of the performance figures. Per Section 5.2,
// from Figure 15 onward every policy runs with uncached displayable color.
func perfSpecs() []policySpec {
	return []policySpec{
		{name: "NRU", ucd: true, make: func() cachesim.Policy { return policy.NewNRU() }},
		{name: "GS-DRRIP", ucd: true, make: func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPC, 8, true),
	}
}

// runPerf simulates the suite on the timing model and returns a table of
// per-app fps normalized to DRRIP (+UCD), with absolute mean fps noted.
func runPerf(o Options, title string, cfg gpu.Config) (*Table, error) {
	base := policySpec{name: "DRRIP", ucd: true, make: func() cachesim.Policy { return policy.NewDRRIP(2) }}
	specs := append([]policySpec{base}, perfSpecs()...)
	cfgRun := cfg
	cfgRun.UncachedDisplay = true
	cyc, err := perApp(o, func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) ([]int64, error) {
		// Sampled fidelity applies interval sampling only (set sampling
		// would distort queueing and DRAM row behavior): the timing model
		// simulates the whole synthesized prefix, which is the warmup plus
		// the measured window because the plan's warmup starts at record
		// 0, and the cycle counts are extrapolated by the estimated
		// full-trace record ratio. The factor cancels in the normalized
		// columns; it only shapes the absolute-fps note.
		cycleScale := 1.0
		if plan != nil && tr.Len() > 0 && plan.fullEst > 0 {
			cycleScale = plan.fullEst / float64(tr.Len())
		}
		// The timing simulator runs one whole trace per call and does not
		// poll the context internally, so the fan-out's per-job context
		// check bounds cancellation latency to one simulation. Results are
		// positional: index 0 is the DRRIP baseline, then the evaluated
		// policies, all reading the one shared packed trace.
		cycles := make([]int64, len(specs))
		err := fanOut(o.ctx(), o.replayWorkers(), len(specs), func(ctx context.Context, i int) error {
			defer trackStage(ctx, pickTiming)()
			defer telemetry.StartFrom(ctx, specs[i].name, "timing", telemetry.String("job", j.ID())).End()
			cycles[i] = scale64(gpu.SimulateSource(tr, cfgRun, specs[i].make()).Cycles, cycleScale)
			return nil
		})
		return cycles, err
	})
	if err != nil {
		return nil, err
	}
	jobs := o.Jobs()
	t := appTable(title, specNames(specs[1:]), appOrder(jobs), func(ab string) []float64 {
		c := cyc[ab]
		vals := make([]float64, len(c)-1)
		for i := range vals {
			// Performance ratio = cycle ratio inverted.
			vals[i] = float64(c[0]) / float64(c[i+1])
		}
		return vals
	})
	if frames := len(jobs); frames > 0 {
		var cycD, cycG int64
		for _, c := range cyc {
			cycD += c[0]
			cycG += c[len(c)-1]
		}
		fpsD := cfg.ClockGHz * 1e9 * float64(frames) / float64(cycD)
		fpsG := cfg.ClockGHz * 1e9 * float64(frames) / float64(cycG)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"model frame rates at this scale: DRRIP %.1f fps, GSPC %.1f fps (absolute values are model-specific)", fpsD, fpsG))
	}
	return t, nil
}

// RunFig15 reproduces Figure 15: performance normalized to DRRIP on the
// baseline GPU with an 8 MB 16-way LLC.
func RunFig15(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	cfg := gpu.DefaultConfig(geom)
	t, err := runPerf(o, fmt.Sprintf("Figure 15: performance vs DRRIP (LLC %s)", geom), cfg)
	if err == nil {
		t.Notes = append(t.Notes, "paper means: NRU 0.93, GS-DRRIP 1.008, GSPC 1.08")
	}
	return t, err
}

// RunFig16 reproduces Figure 16: the same on a 16 MB 16-way LLC.
func RunFig16(o Options) (*Table, error) {
	geom := o.Geometry(2 * paperLLCBytes)
	cfg := gpu.DefaultConfig(geom)
	t, err := runPerf(o, fmt.Sprintf("Figure 16: performance vs DRRIP (LLC %s)", geom), cfg)
	if err == nil {
		t.Notes = append(t.Notes, "paper means: NRU 0.97, GS-DRRIP 1.04, GSPC 1.118")
	}
	return t, err
}

// RunFig17 reproduces Figure 17: sensitivity to a faster DRAM system
// (upper panel) and to a less aggressive GPU (lower panel), both with the
// 8 MB LLC. The two panels are emitted as consecutive row groups.
func RunFig17(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)

	fast := gpu.DefaultConfig(geom)
	fast.DRAM.Timing = dram.DDR3_1867()
	t1, err := runPerf(o, "", fast)
	if err != nil {
		return nil, err
	}

	small := gpu.DefaultConfig(geom)
	small.Cores = 64
	small.Samplers = 8
	t2, err := runPerf(o, "", small)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("Figure 17: performance vs DRRIP under changed environments (LLC %s)", geom),
		Columns: t1.Columns,
	}
	for _, r := range t1.Rows {
		t.AddRow("ddr3-1867/"+r.Label, r.Values...)
	}
	for _, r := range t2.Rows {
		t.AddRow("smallgpu/"+r.Label, r.Values...)
	}
	t.Notes = append(t.Notes,
		"paper means: DDR3-1867 — NRU 0.93, GSPC 1.071; 64-core/8-sampler GPU — NRU 0.947, GSPC 1.059")
	return t, nil
}
