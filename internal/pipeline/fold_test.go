package pipeline_test

import (
	"strings"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/memmap"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
)

// llcKinds renders f through a complex at the default geometry and
// returns the LLC accesses of the given kinds, in order, one word each:
// the kind's name, with "+wb" for a writeback.
func llcKinds(f *pipeline.Frame, kinds ...stream.Kind) string {
	out, _ := llcKindsWith(rendercache.DefaultConfig(), f, kinds...)
	return out
}

// llcKindsWith is llcKinds through a complex built from cfg, which it
// also returns.
func llcKindsWith(cfg rendercache.Config, f *pipeline.Frame, kinds ...stream.Kind) (string, *rendercache.Complex) {
	var out []string
	sink := stream.SinkFunc(func(a stream.Access) {
		for _, k := range kinds {
			if a.Kind == k {
				w := k.String()
				if a.Write {
					w += "+wb"
				}
				out = append(out, w)
			}
		}
	})
	rc := rendercache.New(cfg, sink)
	pipeline.NewRenderer(rc).RenderFrame(f)
	return strings.Join(out, " "), rc
}

// foldFrame returns an 8x8 frame of the given passes, each of whose
// draws makes four constant fetches, which reach the LLC unfiltered as
// "other" accesses and so mark where each draw starts in its stream.
func foldFrame(alloc *memmap.Allocator, bb *memmap.Surface, passes ...*pipeline.Pass) *pipeline.Frame {
	consts := memmap.NewBuffer(alloc, 4, memmap.BlockSize)
	return &pipeline.Frame{
		Width: 8, Height: 8,
		BackBuffer:  bb,
		ConstBase:   consts.Base,
		ConstBlocks: 4,
		Seed:        1,
		Passes:      passes,
	}
}

// fullDraw covers the whole target in one patch, every depth test
// passing, sampling the given textures.
func fullDraw(tex ...pipeline.TextureBinding) []*pipeline.Draw {
	return []*pipeline.Draw{{Coverage: 1, Patches: 1, ZPassRate: 1, Textures: tex}}
}

// TestFoldBoundaries: a run of repeated requests ends at each barrier
// that changes its cache, so every LLC access stays in its pass. The
// expected streams follow from the frames by hand, with no reference to
// how the renderer records requests.
func TestFoldBoundaries(t *testing.T) {
	const other = "other other other other"
	t.Run("flush", func(t *testing.T) {
		// Two depth-only passes over one 8x8 Z tile, one 64-byte block at
		// a byte per sample. The first pass's read misses and fetches the
		// block; every pixel then writes it, and the pass's flush writes
		// it back. The second pass finds the block clean and resident,
		// so its reads hit, and its writes dirty the block again for a
		// writeback at its own flush.
		alloc := memmap.NewAllocator(0x100000)
		z := memmap.NewSurface(alloc, 8, 8, pipeline.ZBytesPerPixel)
		f := foldFrame(alloc, memmap.NewSurface(alloc, 8, 8, 4),
			&pipeline.Pass{Depth: z, Draws: fullDraw()},
			&pipeline.Pass{Depth: z, Draws: fullDraw()},
		)
		want := other + " z z+wb " + other + " z+wb"
		if got := llcKinds(f, stream.Other, stream.Z); got != want {
			t.Errorf("LLC stream\n got %s\nwant %s", got, want)
		}
	})
	t.Run("invalidate", func(t *testing.T) {
		// A pass renders a 4x4 target, one 64-byte block, and two
		// passes sample it through a texture-invalidating barrier each.
		// Each sampling pass starts with an empty texture hierarchy, so
		// its first tap fetches the block from the LLC and every other
		// tap hits.
		alloc := memmap.NewAllocator(0x100000)
		bb, rt := memmap.NewSurface(alloc, 8, 8, 4), memmap.NewSurface(alloc, 4, 4, 4)
		sample := pipeline.TextureBinding{Texture: memmap.TextureFromSurface(rt), Scale: 1, Aligned: true}
		f := foldFrame(alloc, bb,
			&pipeline.Pass{Target: rt, Draws: fullDraw()},
			&pipeline.Pass{Target: bb, SamplesDynamic: true, Draws: fullDraw(sample)},
			&pipeline.Pass{Target: bb, SamplesDynamic: true, Draws: fullDraw(sample)},
		)
		want := other + " " + other + " texture " + other + " texture"
		if got := llcKinds(f, stream.Other, stream.Texture); got != want {
			t.Errorf("LLC stream\n got %s\nwant %s", got, want)
		}
	})
}

// TestBilinearGrouping: a footprint whose two rows span the same two
// blocks reaches a texture L1 of at least two ways as two runs, and a
// one-way L1 in raster order. An 8x8 depth-only pass samples an 8x4
// texture of two 4x4 tiles side by side, one 64-byte block each (A and
// B), at one texel position for every pixel: the footprint's left taps
// lie in A's last column and its right taps in B's first, on rows 1 and
// 2, so each pixel makes A B A B in raster order. The expected streams
// and counts follow from the frame by hand.
func TestBilinearGrouping(t *testing.T) {
	alloc := memmap.NewAllocator(0x100000)
	z := memmap.NewSurface(alloc, 8, 8, pipeline.ZBytesPerPixel)
	tex := memmap.NewTexture(alloc, 8, 4, 4, 1)
	sample := pipeline.TextureBinding{Texture: tex, Scale: 0, Aligned: true, U0: 3.0 / 8, V0: 1.0 / 4}
	f := foldFrame(alloc, memmap.NewSurface(alloc, 8, 8, 4), &pipeline.Pass{Depth: z, Draws: fullDraw(sample)})
	const pixels = 64

	oneWay := rendercache.DefaultConfig()
	oneWay.TexL1 = cachesim.Geometry{SizeBytes: 64, Ways: 1, BlockSize: 64}
	for _, c := range []struct {
		name string
		cfg  rendercache.Config
		// entries is the texture port's batch entries, and misses its
		// L1 misses: with two or more ways, A A B B, two runs per pixel
		// and a miss each for A and B; with one way, A B A B, no tap
		// repeating the one before it and none finding its block.
		entries int
		misses  int64
	}{
		{"16-way", rendercache.DefaultConfig(), 2 * pixels, 2},
		{"one-way", oneWay, 4 * pixels, 4 * pixels},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := pipeline.RecordRequests(f, c.cfg).Entries(rendercache.Texture); got != c.entries {
				t.Errorf("texture entries %d, want %d", got, c.entries)
			}
			// The LLC sees A and B fetched once each either way: the L2
			// behind a one-way L1 catches its misses.
			got, rc := llcKindsWith(c.cfg, f, stream.Other, stream.Z, stream.Texture)
			if want := "other other other other z texture texture z+wb"; got != want {
				t.Errorf("LLC stream\n got %s\nwant %s", got, want)
			}
			st := rc.Stats()["texL1"]
			if st.Accesses != 4*pixels || st.Misses != c.misses || st.Hits != 4*pixels-c.misses {
				t.Errorf("texture L1: %d accesses, %d hits, %d misses; want %d, %d, %d",
					st.Accesses, st.Hits, st.Misses, 4*pixels, 4*pixels-c.misses, c.misses)
			}
		})
	}
}
