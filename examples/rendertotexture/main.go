// Render-to-texture characterization: build a custom two-pass frame with
// heavy dynamic texturing, trace it, and measure the inter-stream reuse
// that the paper's GSPC policy exploits — render target blocks consumed
// by the texture samplers from the LLC (Section 2.3 of the paper).
//
//	go run ./examples/rendertotexture
package main

import (
	"context"
	"fmt"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/memmap"
	"gspc/internal/pipeline"
	"gspc/internal/policy"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
)

// buildFrame constructs a frame by hand: pass 1 renders a reflection map,
// pass 2 renders the scene sampling that map, pass 3 post-processes the
// scene into the back buffer. Every surface the samplers read in passes 2
// and 3 was produced by the render target stream moments earlier.
func buildFrame() *pipeline.Frame {
	alloc := memmap.NewAllocator(0x1000_0000)
	const w, h = 480, 296

	f := &pipeline.Frame{Width: w, Height: h, Seed: 1234}
	f.BackBuffer = memmap.NewSurface(alloc, w, h, 4)
	depth := memmap.NewSurface(alloc, w, h, pipeline.ZBytesPerPixel)
	hiz := memmap.NewSurface(alloc, w/4, h/4, pipeline.HiZBytesPerEntry)
	scene := memmap.NewSurface(alloc, w, h, 4)
	reflection := memmap.NewSurface(alloc, 240, 152, 4)
	reflDepth := memmap.NewSurface(alloc, 240, 152, pipeline.ZBytesPerPixel)

	consts := memmap.NewBuffer(alloc, 32, 64)
	f.ConstBase = consts.Base
	f.ConstBlocks = consts.Count()

	mesh := &pipeline.Mesh{
		Vertices: memmap.NewBuffer(alloc, 4096, 32),
		Indices:  memmap.NewBuffer(alloc, 12288, 4),
		TriCount: 4096,
	}
	material := memmap.NewTexture(alloc, 1024, 1024, 4, 8)

	// Pass 1: render the reflection map.
	f.Passes = append(f.Passes, &pipeline.Pass{
		Target: reflection,
		Depth:  reflDepth,
		Draws: []*pipeline.Draw{{
			Mesh: mesh, Coverage: 1.5, Patches: 4, ZPassRate: 0.7,
			Textures: []pipeline.TextureBinding{{Texture: material, Scale: 1.5}},
		}},
	})

	// Pass 2: render the scene; every draw samples the reflection.
	scenePass := &pipeline.Pass{Target: scene, Depth: depth, HiZ: hiz, SamplesDynamic: true}
	for d := 0; d < 6; d++ {
		scenePass.Draws = append(scenePass.Draws, &pipeline.Draw{
			Mesh: mesh, Coverage: 0.4, Patches: 3, ZPassRate: 0.65,
			Textures: []pipeline.TextureBinding{
				{Texture: material, Scale: 2.0},
				{Texture: memmap.TextureFromSurface(reflection), Scale: 0.5, Aligned: true},
			},
		})
	}
	f.Passes = append(f.Passes, scenePass)

	// Pass 3: tone-map the scene into the back buffer.
	f.Passes = append(f.Passes, &pipeline.Pass{
		Target:         f.BackBuffer,
		SamplesDynamic: true,
		Draws: []*pipeline.Draw{{
			Mesh: mesh, Coverage: 1.0, Patches: 1,
			Textures: []pipeline.TextureBinding{
				{Texture: memmap.TextureFromSurface(scene), Scale: 1.0, Aligned: true},
			},
		}},
	})
	return f
}

func main() {
	f := buildFrame()
	if err := f.Validate(); err != nil {
		panic(err)
	}

	// Trace the frame through the render cache complex.
	tr := stream.NewTrace(0)
	rc := rendercache.New(rendercache.DefaultConfig().Scaled(0.25), tr)
	pipeline.NewRenderer(rc).RenderFrame(f)
	fmt.Printf("custom frame: %d LLC accesses\n\n", tr.Len())

	geom := cachesim.Geometry{SizeBytes: 512 << 10, Ways: 16, BlockSize: 64}
	show := func(name string, pol cachesim.Policy) {
		c := cachesim.New(geom, pol)
		tk := analysis.Attach(c)
		// context.Background never cancels, so the replay always
		// completes.
		_ = cachesim.ReplaySource(context.Background(), c, tr, 0)
		fmt.Printf("%-8s misses=%6d  RT produced=%5d consumed=%5d (%4.1f%%)  tex hits inter/intra=%d/%d\n",
			name, c.Stats.Misses, tk.RTProduced, tk.RTConsumed, 100*tk.RTConsumptionRate(),
			tk.InterTexHits, tk.IntraTexHits)
	}
	show("DRRIP", policy.NewDRRIP(2))
	show("GSPC", core.New(core.DefaultParams(core.VariantGSPC)))
	show("Belady", belady.NewOPT(belady.NextUseTrace(tr, 6)))
}
