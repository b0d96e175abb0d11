// Quickstart: generate the LLC access trace of one game frame, replay it
// under the baseline DRRIP policy and under the paper's GSPC policy, and
// compare miss counts.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

func main() {
	// Pick one frame of Civilization V from the 52-frame suite and
	// synthesize its LLC access trace at quarter scale.
	job := workload.FrameJob{App: mustProfile("Civilization"), Index: 0}
	tr := trace.GeneratePacked(job, 0.25)
	fmt.Printf("frame %s: %d LLC accesses\n\n", job.ID(), tr.Len())

	// The 8 MB 16-way LLC of the paper, scaled to match the frame.
	geom := cachesim.Geometry{SizeBytes: 768 << 10, Ways: 16, BlockSize: 64}

	run := func(name string, pol cachesim.Policy, ucd bool) int64 {
		c := cachesim.New(geom, pol)
		if ucd {
			// Uncached displayable color (UCD): the final display
			// stream bypasses the LLC.
			c.SetBypass(stream.Display, true)
		}
		// context.Background never cancels, so the replay always
		// completes.
		_ = cachesim.ReplaySource(context.Background(), c, tr, 0)
		fmt.Printf("%-12s misses=%7d  hit rate=%5.1f%%\n", name, c.Stats.Misses, 100*c.Stats.HitRate())
		return c.Stats.Misses
	}

	base := run("DRRIP", policy.NewDRRIP(2), false)
	gspc := run("GSPC+UCD", core.New(core.DefaultParams(core.VariantGSPC)), true)

	delta := 100 * float64(base-gspc) / float64(base)
	if delta >= 0 {
		fmt.Printf("\nGSPC saves %.1f%% of DRRIP's LLC misses on this frame\n", delta)
	} else {
		fmt.Printf("\nGSPC costs %.1f%% more LLC misses on this frame (per-frame results vary; see gspcsim -exp fig12 for the suite)\n", -delta)
	}
}

func mustProfile(abbrev string) workload.Profile {
	p, ok := workload.ProfileByAbbrev(abbrev)
	if !ok {
		panic("unknown profile " + abbrev)
	}
	return p
}
