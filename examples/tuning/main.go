// Threshold tuning: sweep the GSPC family's probability threshold t (the
// paper's Figure 11) and the PROD/CONS render-target bands on a frame of
// the suite, showing how the policy's insertion decisions shift.
//
//	go run ./examples/tuning
package main

import (
	"context"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

func main() {
	p, _ := workload.ProfileByAbbrev("Dirt")
	tr := trace.GeneratePacked(workload.FrameJob{App: p, Index: 0}, 0.25)
	geom := cachesim.Geometry{SizeBytes: 768 << 10, Ways: 16, BlockSize: 64}

	fmt.Println("GSPZTC threshold sweep (Figure 11 style):")
	fmt.Printf("%6s %10s %14s %14s\n", "t", "misses", "tex distant", "z distant")
	for _, tv := range []int{2, 4, 8, 16, 32} {
		params := core.DefaultParams(core.VariantGSPZTC)
		params.T = tv
		g := core.New(params)
		misses := run(tr, g, geom)
		in := g.Insertions
		fmt.Printf("%6d %10d %13.1f%% %13.1f%%\n", tv, misses,
			pct(in.TexDistant, in.TexDistant+in.TexZero),
			pct(in.ZDistant, in.ZDistant+in.ZLong))
	}

	fmt.Println("\nGSPC render-target band sweep (PROD/CONS thresholds of Table 5):")
	fmt.Printf("%8s %10s %24s\n", "hi/lo", "misses", "RT inserts d/l/0")
	for _, band := range [][2]int{{4, 2}, {8, 4}, {16, 8}, {32, 16}} {
		params := core.DefaultParams(core.VariantGSPC)
		params.ProdConsHi, params.ProdConsLo = band[0], band[1]
		g := core.New(params)
		misses := run(tr, g, geom)
		in := g.Insertions
		fmt.Printf("%4d/%-3d %10d %10d/%d/%d\n", band[0], band[1], misses,
			in.RTDistant, in.RTLong, in.RTZero)
	}
}

func run(tr *stream.Trace, pol cachesim.Policy, geom cachesim.Geometry) int64 {
	c := cachesim.New(geom, pol)
	c.SetBypass(stream.Display, true)
	// context.Background never cancels, so the replay always completes.
	_ = cachesim.ReplaySource(context.Background(), c, tr, 0)
	return c.Stats.Misses
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
