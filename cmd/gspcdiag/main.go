// Command gspcdiag prints a per-frame diagnosis of the GSPC policy
// against DRRIP and Belady's optimal: miss deltas, render-target
// consumption amplification, per-stream hit movement, and the insertion
// decisions GSPC made. It is the tool to reach for when a workload
// profile behaves unexpectedly.
//
//	gspcdiag -apps AssnCreed,DMC [-frames 2] [-scale 0.25] [-llc 768KB]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

func run(tr *stream.Trace, pol cachesim.Policy, geom cachesim.Geometry, ucd bool) (*cachesim.Cache, *analysis.Tracker) {
	c := cachesim.New(geom, pol)
	if ucd {
		c.SetBypass(stream.Display, true)
	}
	tk := analysis.Attach(c)
	// context.Background never cancels, so the replay always completes.
	_ = cachesim.ReplaySource(context.Background(), c, tr, 0)
	return c, tk
}

func main() {
	var (
		apps   = flag.String("apps", "AssnCreed", "comma-separated application abbreviations")
		frames = flag.Int("frames", 1, "frames per application")
		scale  = flag.Float64("scale", 0.25, "linear frame scale")
		llc    = flag.String("llc", "768KB", "LLC capacity")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "gspcdiag: -scale %v is not a finite positive number\n", *scale)
		os.Exit(2)
	}
	size, err := cachesim.ParseSize(*llc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspcdiag: bad -llc:", err)
		os.Exit(2)
	}
	geom := cachesim.Geometry{SizeBytes: size, Ways: 16, BlockSize: 64}
	if err := geom.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gspcdiag: bad -llc:", err)
		os.Exit(2)
	}

	for _, ab := range strings.Split(*apps, ",") {
		p, ok := workload.ProfileByAbbrev(strings.TrimSpace(ab))
		if !ok {
			fmt.Fprintf(os.Stderr, "gspcdiag: unknown application %q\n", ab)
			os.Exit(2)
		}
		n := *frames
		if n > p.Frames {
			n = p.Frames
		}
		for idx := 0; idx < n; idx++ {
			job := workload.FrameJob{App: p, Index: idx}
			tr := trace.GeneratePacked(job, *scale)

			cd, td := run(tr, policy.NewDRRIP(2), geom, false)
			g := core.New(core.DefaultParams(core.VariantGSPC))
			cg, tg := run(tr, g, geom, true)
			_, to := run(tr, belady.NewOPT(belady.NextUseTrace(tr, 6)), geom, false)

			fmt.Printf("%s (%d LLC accesses, LLC %s)\n", job.ID(), tr.Len(), geom)
			fmt.Printf("  misses: DRRIP %d, GSPC+UCD %d (%+.1f%%)\n",
				cd.Stats.Misses, cg.Stats.Misses,
				100*float64(cg.Stats.Misses-cd.Stats.Misses)/float64(cd.Stats.Misses))
			fmt.Printf("  rt->tex consumption:  DRRIP %4.1f%%  GSPC %4.1f%%  Belady %4.1f%%\n",
				100*td.RTConsumptionRate(), 100*tg.RTConsumptionRate(), 100*to.RTConsumptionRate())
			fmt.Printf("  texture hit rate:     DRRIP %4.1f%%  GSPC %4.1f%%  Belady %4.1f%%\n",
				100*td.KindHitRate(stream.Texture), 100*tg.KindHitRate(stream.Texture), 100*to.KindHitRate(stream.Texture))
			for _, k := range []stream.Kind{stream.Texture, stream.RT, stream.Z, stream.HiZ, stream.Vertex} {
				fmt.Printf("  %-8s hits: DRRIP %7d  GSPC %7d  (%+d)\n",
					k, td.KindHits(k), tg.KindHits(k), tg.KindHits(k)-td.KindHits(k))
			}
			in := g.Insertions
			fmt.Printf("  GSPC insertions: rt 3/2/0 = %d/%d/%d   tex 3/0 = %d/%d   z 3/2 = %d/%d\n\n",
				in.RTDistant, in.RTLong, in.RTZero, in.TexDistant, in.TexZero, in.ZDistant, in.ZLong)
		}
	}
}
