// Command llcstat characterizes a stored LLC trace: stream mix, and the
// hit rates and reuse metrics of a chosen policy on a chosen LLC
// geometry. It is the offline companion of tracegen.
//
// Usage:
//
//	llcstat -trace frame.trc [-llc 768KB] [-ways 16] [-policy GSPC] [-ucd]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
)

func makePolicy(name string, tr *stream.Trace) (cachesim.Policy, error) {
	switch strings.ToUpper(name) {
	case "DRRIP":
		return policy.NewDRRIP(2), nil
	case "SRRIP":
		return policy.NewSRRIP(2), nil
	case "NRU":
		return policy.NewNRU(), nil
	case "LRU":
		return policy.NewLRU(), nil
	case "GS-DRRIP", "GSDRRIP":
		return policy.NewGSDRRIP(2), nil
	case "SHIP-MEM", "SHIP":
		return policy.NewSHiPMem(4), nil
	case "GSPZTC":
		return core.New(core.DefaultParams(core.VariantGSPZTC)), nil
	case "GSPZTC+TSE", "TSE":
		return core.New(core.DefaultParams(core.VariantGSPZTCTSE)), nil
	case "GSPC":
		return core.New(core.DefaultParams(core.VariantGSPC)), nil
	case "BELADY", "OPT":
		return belady.NewOPT(belady.NextUseTrace(tr, 6)), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file from tracegen")
		llc       = flag.String("llc", "768KB", "LLC capacity (e.g. 8MB, 768KB)")
		ways      = flag.Int("ways", 16, "LLC associativity")
		polName   = flag.String("policy", "DRRIP", "replacement policy")
		ucd       = flag.Bool("ucd", false, "bypass the display stream (uncached displayable color)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "llcstat: -trace is required")
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcstat:", err)
		os.Exit(1)
	}
	tr, err := trace.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcstat:", err)
		os.Exit(1)
	}

	size, err := cachesim.ParseSize(*llc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcstat: bad -llc:", err)
		os.Exit(2)
	}
	geom := cachesim.Geometry{SizeBytes: size, Ways: *ways, BlockSize: 64}
	if err := geom.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "llcstat: bad -llc/-ways:", err)
		os.Exit(2)
	}
	pol, err := makePolicy(*polName, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcstat:", err)
		os.Exit(2)
	}

	c := cachesim.New(geom, pol)
	if *ucd {
		c.SetBypass(stream.Display, true)
	}
	tk := analysis.Attach(c)
	// context.Background never cancels, so the replay always completes.
	_ = cachesim.ReplaySource(context.Background(), c, tr, 0)

	fmt.Printf("trace: %s (%d accesses)\n", *tracePath, tr.Len())
	fmt.Printf("llc:   %s, policy %s\n\n", c.Geometry(), pol.Name())
	fmt.Printf("%-10s %10s %10s %8s\n", "stream", "accesses", "hits", "hit%")
	for _, k := range stream.Kinds() {
		acc := c.Stats.KindAccesses[k]
		if acc == 0 {
			continue
		}
		fmt.Printf("%-10s %10d %10d %7.1f%%\n", k, acc, c.Stats.KindHits[k], 100*float64(c.Stats.KindHits[k])/float64(acc))
	}
	fmt.Printf("%-10s %10d %10d %7.1f%%\n\n", "total", c.Stats.Accesses, c.Stats.Hits, 100*c.Stats.HitRate())
	fmt.Printf("misses: %d  evictions: %d  writebacks: %d\n", c.Stats.Misses, c.Stats.Evictions, c.Stats.Writebacks)
	fmt.Printf("texture reuse: inter-stream hits %d, intra-stream hits %d\n", tk.InterTexHits, tk.IntraTexHits)
	fmt.Printf("render targets: produced %d, consumed by samplers %d (%.1f%%)\n",
		tk.RTProduced, tk.RTConsumed, 100*tk.RTConsumptionRate())
	fmt.Printf("texture epoch death ratios: E0 %.2f  E1 %.2f  E2 %.2f\n",
		tk.TexDeathRatio(0), tk.TexDeathRatio(1), tk.TexDeathRatio(2))
	fmt.Printf("z epoch death ratios:       E0 %.2f  E1 %.2f  E2 %.2f\n",
		tk.ZDeathRatio(0), tk.ZDeathRatio(1), tk.ZDeathRatio(2))
}
