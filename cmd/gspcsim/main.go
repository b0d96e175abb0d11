// Command gspcsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	gspcsim -list
//	gspcsim -exp fig12 [-scale 0.25] [-frames 2] [-apps AssnCreed,Dirt] [-v]
//	gspcsim -exp all
//
// Every run is deterministic; identical flags produce identical tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"gspc/internal/harness"
	"gspc/internal/viz"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("exp", "", "experiment id (e.g. fig12), or 'all'")
		scale   = flag.Float64("scale", 0.25, "linear frame scale (1.0 = paper resolutions)")
		capf    = flag.Float64("capacity-factor", 0, "LLC capacity calibration factor (0 = default)")
		frames  = flag.Int("frames", 0, "max frames per application (0 = all)")
		apps    = flag.String("apps", "", "comma-separated application abbreviations")
		verb    = flag.Bool("v", false, "print per-frame progress")
		fid     = flag.String("fidelity", "", "simulation fidelity: exact (default) or sampled (set+interval sampling with an error estimate)")
		sratio  = flag.Int("sample-ratio", 0, "simulate 1-in-N LLC sets under -fidelity sampled (0 = default "+fmt.Sprint(harness.DefaultSampleSetRatio)+")")
		sseed   = flag.Uint64("sample-seed", 0, "set-selection hash seed under -fidelity sampled (0 = default 1)")
		report  = flag.String("report", "", "write a full markdown report (all experiments) to this file")
		chart   = flag.Bool("chart", false, "render each experiment as an ASCII bar chart as well")
		jsonOut = flag.Bool("json", false, "emit one structured JSON result per experiment (the objects gspcd serves) instead of text tables")
	)
	flag.Parse()

	if *list || (*exp == "" && *report == "") {
		fmt.Println("experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-6s %s\n", e.ID, e.Title)
		}
		fmt.Println("extensions and ablations:")
		for _, e := range harness.Extensions() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "gspcsim: -scale %v is not a finite positive number\n", *scale)
		os.Exit(2)
	}
	opts := harness.DefaultOptions()
	opts.Scale = *scale
	opts.CapacityFactor = *capf
	opts.MaxFramesPerApp = *frames
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	if *verb {
		opts.Progress = os.Stderr
	}
	switch *fid {
	case "", harness.FidelityExact:
	case harness.FidelitySampled:
		opts.Fidelity = harness.FidelitySampled
		opts.SampleSetRatio = *sratio
		opts.SampleSeed = *sseed
	default:
		fmt.Fprintf(os.Stderr, "gspcsim: unknown -fidelity %q (exact or sampled)\n", *fid)
		os.Exit(2)
	}
	if *fid != harness.FidelitySampled && (*sratio != 0 || *sseed != 0) {
		fmt.Fprintln(os.Stderr, "gspcsim: -sample-ratio/-sample-seed require -fidelity sampled")
		os.Exit(2)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gspcsim:", err)
			os.Exit(1)
		}
		var ids []string
		if *exp != "" && *exp != "all" {
			ids = strings.Split(*exp, ",")
		}
		if err := harness.WriteReport(f, opts, ids); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "gspcsim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gspcsim:", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *report)
		return
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "gspcsim: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range selected {
		start := time.Now()
		// RunResult (not e.Run) so sampled fidelity gets its aggregate
		// report wired up; exact runs produce the same table either way.
		res, err := harness.RunResult(e.ID, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gspcsim: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		tbl := res.Table
		if *jsonOut {
			// One object per line (NDJSON), byte-identical to the bodies
			// gspcd serves for the same options modulo encoder framing.
			if err := enc.Encode(res); err != nil {
				fmt.Fprintf(os.Stderr, "gspcsim: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
			continue
		}
		tbl.Render(os.Stdout)
		if s := res.Sampling; s != nil {
			fmt.Printf("[sampled: %d/%d sets, ratio 1/%d, est rel err %.3f (max %.3f)]\n",
				s.SetsSimulated, s.SetsTotal, s.SetRatio, s.EstRelErr, s.MaxRelErr)
		}
		if *chart {
			d := viz.NewData("", tbl.Columns...)
			for _, r := range tbl.Rows {
				d.Add(r.Label, r.Values...)
			}
			base := 0.0
			if _, ok := tbl.Cell("MEAN", "DRRIP"); ok || strings.Contains(tbl.Title, "normalized") {
				base = 1.0
			}
			viz.Chart{Baseline: base}.Render(os.Stdout, d)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
