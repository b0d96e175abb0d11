// Capacity sweep: how the policies scale from small to large LLCs
// (the paper's 8 MB vs 16 MB study of Figures 15 and 16, extended to a
// full sweep). Run on a handful of suite frames.
//
//	go run ./examples/capacity
package main

import (
	"context"
	"fmt"

	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

func main() {
	// One frame from each of four applications, quarter scale.
	var traces []*stream.Trace
	for _, ab := range []string{"AssnCreed", "Civilization", "Dirt", "Unigine"} {
		p, _ := workload.ProfileByAbbrev(ab)
		traces = append(traces, trace.GeneratePacked(workload.FrameJob{App: p, Index: 0}, 0.25))
	}

	fmt.Printf("%-8s %10s %10s %10s %10s\n", "LLC", "DRRIP", "GSPC", "Belady", "GSPC/DRRIP")
	for _, kb := range []int{256, 512, 768, 1024, 1536, 2048} {
		geom := cachesim.Geometry{SizeBytes: kb << 10, Ways: 16, BlockSize: 64}
		var mD, mG, mO int64
		for _, tr := range traces {
			mD += run(tr, policy.NewDRRIP(2), geom)
			mG += run(tr, core.New(core.DefaultParams(core.VariantGSPC)), geom)
			mO += run(tr, belady.NewOPT(belady.NextUseTrace(tr, 6)), geom)
		}
		fmt.Printf("%5dKB %10d %10d %10d %9.3f\n", kb, mD, mG, mO, float64(mG)/float64(mD))
	}
	fmt.Println("\n(miss counts summed over 4 frames; the GSPC/DRRIP ratio is the paper's Figure 12 metric)")
}

func run(tr *stream.Trace, pol cachesim.Policy, geom cachesim.Geometry) int64 {
	c := cachesim.New(geom, pol)
	c.SetBypass(stream.Display, true)
	// context.Background never cancels, so the replay always completes.
	_ = cachesim.ReplaySource(context.Background(), c, tr, 0)
	return c.Stats.Misses
}
