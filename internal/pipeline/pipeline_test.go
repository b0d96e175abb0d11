package pipeline

import (
	"math"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/memmap"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/xrand"
)

// buildTestFrame constructs a minimal two-pass frame: a geometry pass
// with depth testing and texturing into the back buffer, preceded by a
// small render-to-texture pass.
func buildTestFrame() *Frame {
	alloc := memmap.NewAllocator(0x1000000)
	const w, h = 128, 96
	bb := memmap.NewSurface(alloc, w, h, 4)
	depth := memmap.NewSurface(alloc, w, h, ZBytesPerPixel)
	hiz := memmap.NewSurface(alloc, w/HiZGranularity, h/HiZGranularity, HiZBytesPerEntry)
	rt := memmap.NewSurface(alloc, 64, 64, 4)
	tex := memmap.NewTexture(alloc, 128, 128, 4, 4)
	mesh := &Mesh{
		Vertices: memmap.NewBuffer(alloc, 64, 32),
		Indices:  memmap.NewBuffer(alloc, 192, 4),
		TriCount: 64,
	}
	cons := memmap.NewBuffer(alloc, 16, 64)

	f := &Frame{
		Width: w, Height: h,
		BackBuffer:  bb,
		ConstBase:   cons.Base,
		ConstBlocks: 16,
		Seed:        7,
	}
	f.Passes = append(f.Passes,
		&Pass{
			Target: rt,
			Draws: []*Draw{{
				Mesh:     mesh,
				Coverage: 0.8,
				Patches:  2,
				Textures: []TextureBinding{{Texture: tex, Scale: 1.0}},
			}},
		},
		&Pass{
			Target: bb,
			Depth:  depth,
			HiZ:    hiz,
			Draws: []*Draw{{
				Mesh:      mesh,
				Coverage:  1.0,
				Patches:   3,
				ZPassRate: 0.7,
				Textures: []TextureBinding{
					{Texture: tex, Scale: 2.0, Trilinear: true},
					{Texture: memmap.TextureFromSurface(rt), Scale: 0.5, Aligned: true},
				},
			}},
			SamplesDynamic: true,
		},
	)
	return f
}

func renderToCounter(f *Frame) *stream.Counter {
	cnt := &stream.Counter{}
	rc := rendercache.New(rendercache.DefaultConfig().Scaled(0.1), cnt)
	NewRenderer(rc).RenderFrame(f)
	return cnt
}

func TestFrameValidate(t *testing.T) {
	f := buildTestFrame()
	if err := f.Validate(); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	bad := buildTestFrame()
	bad.BackBuffer = nil
	if bad.Validate() == nil {
		t.Error("frame without back buffer accepted")
	}
	bad2 := buildTestFrame()
	bad2.Passes[0].Target = nil
	if bad2.Validate() == nil {
		t.Error("pass without target or depth accepted")
	}
	bad3 := buildTestFrame()
	bad3.Passes[1].Draws[0].Coverage = -1
	if bad3.Validate() == nil {
		t.Error("negative coverage accepted")
	}
	bad4 := buildTestFrame()
	bad4.Passes[1].Draws[0].ZPassRate = 2
	if bad4.Validate() == nil {
		t.Error("z pass rate > 1 accepted")
	}
	bad5 := buildTestFrame()
	bad5.Passes[1].Depth = nil // HiZ without depth
	if bad5.Validate() == nil {
		t.Error("HiZ without depth accepted")
	}
}

func TestRenderEmitsAllStreams(t *testing.T) {
	cnt := renderToCounter(buildTestFrame())
	for _, k := range []stream.Kind{stream.Vertex, stream.Z, stream.HiZ, stream.RT, stream.Texture, stream.Display, stream.Other} {
		if cnt.ByKind[k] == 0 {
			t.Errorf("stream %v produced no LLC traffic", k)
		}
	}
	if cnt.ByKind[stream.Stencil] != 0 {
		t.Error("stencil traffic without a stencil surface")
	}
}

func TestRenderDeterminism(t *testing.T) {
	var a, b []stream.Access
	rcA := rendercache.New(rendercache.DefaultConfig().Scaled(0.1),
		stream.SinkFunc(func(ac stream.Access) { a = append(a, ac) }))
	rcB := rendercache.New(rendercache.DefaultConfig().Scaled(0.1),
		stream.SinkFunc(func(ac stream.Access) { b = append(b, ac) }))
	NewRenderer(rcA).RenderFrame(buildTestFrame())
	NewRenderer(rcB).RenderFrame(buildTestFrame())
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	f1, f2 := buildTestFrame(), buildTestFrame()
	f2.Seed = 8
	c1, c2 := renderToCounter(f1), renderToCounter(f2)
	if c1.Total == c2.Total {
		// Identical totals are possible but all kind counts matching is
		// effectively impossible for different seeds.
		same := true
		for k := range c1.ByKind {
			if c1.ByKind[k] != c2.ByKind[k] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestDisplayStreamCoversBackBuffer(t *testing.T) {
	f := buildTestFrame()
	cnt := renderToCounter(f)
	// The final pass covers the full back buffer, so its displayable
	// color writebacks must reach at least one store per block; patch
	// overlap may rewrite a modest fraction.
	blocks := int64(f.BackBuffer.TilesPerRow() * f.BackBuffer.TilesPerCol())
	got := cnt.ByKind[stream.Display]
	if got < blocks || got > 2*blocks {
		t.Errorf("display writes = %d, want within [%d, %d]", got, blocks, 2*blocks)
	}
}

func TestHiZRejectionSkipsWork(t *testing.T) {
	base := buildTestFrame()
	baseCnt := renderToCounter(base)

	rej := buildTestFrame()
	rej.Passes[1].Draws[0].HiZRejectRate = 0.9
	rejCnt := renderToCounter(rej)

	if rejCnt.ByKind[stream.Z] >= baseCnt.ByKind[stream.Z] {
		t.Errorf("HiZ rejection did not reduce Z traffic: %d vs %d",
			rejCnt.ByKind[stream.Z], baseCnt.ByKind[stream.Z])
	}
}

func TestZFailSkipsShading(t *testing.T) {
	pass := buildTestFrame()
	pass.Passes[1].Draws[0].ZPassRate = 1.0
	fail := buildTestFrame()
	fail.Passes[1].Draws[0].ZPassRate = 0.05

	rcP := rendercache.New(rendercache.DefaultConfig().Scaled(0.1), &stream.Counter{})
	rp := NewRenderer(rcP)
	rp.RenderFrame(pass)
	rcF := rendercache.New(rendercache.DefaultConfig().Scaled(0.1), &stream.Counter{})
	rf := NewRenderer(rcF)
	rf.RenderFrame(fail)

	if rf.PixelsShaded >= rp.PixelsShaded {
		t.Errorf("low z pass rate should shade fewer pixels: %d vs %d", rf.PixelsShaded, rp.PixelsShaded)
	}
	if rf.PixelsRejected == 0 {
		t.Error("no pixels rejected at 5% pass rate")
	}
}

func TestBlendAddsRTReads(t *testing.T) {
	plain := buildTestFrame()
	cntPlain := renderToCounter(plain)

	blend := buildTestFrame()
	blend.Passes[0].Draws[0].Blend = true // pass 0 targets an offscreen RT
	cntBlend := renderToCounter(blend)

	if cntBlend.ByKind[stream.RT] <= cntPlain.ByKind[stream.RT] {
		t.Errorf("blending did not increase RT traffic: %d vs %d",
			cntBlend.ByKind[stream.RT], cntPlain.ByKind[stream.RT])
	}
}

func TestStencilPass(t *testing.T) {
	f := buildTestFrame()
	alloc := memmap.NewAllocator(0x9000000)
	f.Passes[1].Stencil = memmap.NewSurface(alloc, f.Width, f.Height, 1)
	cnt := renderToCounter(f)
	if cnt.ByKind[stream.Stencil] == 0 {
		t.Error("stencil surface bound but no stencil traffic")
	}
}

func TestExtraTargetsWriteRT(t *testing.T) {
	f := buildTestFrame()
	alloc := memmap.NewAllocator(0xa000000)
	f.Passes[1].ExtraTargets = []*memmap.Surface{
		memmap.NewSurface(alloc, f.Width, f.Height, 4),
		memmap.NewSurface(alloc, f.Width, f.Height, 4),
	}
	cnt := renderToCounter(f)
	base := renderToCounter(buildTestFrame())
	if cnt.ByKind[stream.RT] <= base.ByKind[stream.RT] {
		t.Error("extra render targets did not add RT traffic")
	}
}

func TestDepthOnlyPass(t *testing.T) {
	f := buildTestFrame()
	f.Passes[0].Target = nil
	alloc := memmap.NewAllocator(0xb000000)
	f.Passes[0].Depth = memmap.NewSurface(alloc, 64, 64, ZBytesPerPixel)
	if err := f.Validate(); err != nil {
		t.Fatalf("depth-only pass rejected: %v", err)
	}
	cnt := renderToCounter(f)
	if cnt.Total == 0 {
		t.Error("depth-only frame produced no traffic")
	}
}

func TestLodOf(t *testing.T) {
	cases := []struct {
		scale float64
		lod   int
	}{
		{0.5, 0}, {1.0, 0}, {1.4, 0}, {1.6, 1}, {2.9, 1}, {3.1, 2}, {6.5, 3}, {7.0, 3},
	}
	for _, c := range cases {
		lod, _ := lodOf(c.scale)
		if lod != c.lod {
			t.Errorf("lodOf(%v) = %d, want %d", c.scale, lod, c.lod)
		}
		// The effective step must stay in [0.75, 1.5).
		if c.scale > 1 {
			step := c.scale / float64(int(1)<<lod)
			if step < 0.74 || step >= 1.51 {
				t.Errorf("lodOf(%v): step %v outside [0.75,1.5)", c.scale, step)
			}
		}
	}
}

// Property: wrap matches v % n with the negative fix-up. The sizes are
// 1, every power of two and odd sizes up to 4096; v runs over random
// values in ±2^40 and, with either sign, the edges 0, n-1, n, k·n±1,
// 2^32±1 and the int64 extremes.
func TestWrap(t *testing.T) {
	ref := func(v, n int) int {
		if v %= n; v < 0 {
			v += n
		}
		return v
	}
	rng := xrand.New(23)
	ns := []int{3, 5, 7, 255, 257, 1023, 1025, 4095}
	for n := 1; n <= 4096; n <<= 1 {
		ns = append(ns, n)
	}
	for range 16 {
		ns = append(ns, rng.Intn(2048)*2+1)
	}
	for _, n := range ns {
		m := cachesim.NewFastmod(uint64(n))
		check := func(v int) {
			if got, want := wrap(v, n, m), ref(v, n); got != want {
				t.Fatalf("wrap(%d, %d) = %d, want %d", v, n, got, want)
			}
		}
		k := (1 << 40) / n
		for _, v := range []int{0, n - 1, n, k*n - 1, k*n + 1, 1<<32 - 1, 1<<32 + 1, math.MaxInt64} {
			check(v)
			check(-v)
		}
		check(math.MinInt64)
		for range 2000 {
			check(rng.Intn(1<<41+1) - 1<<40)
		}
	}
}

func TestSqrt(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 12345.678} {
		got := sqrt(x)
		if x == 0 && got != 0 {
			t.Error("sqrt(0) != 0")
		}
		if x > 0 {
			rel := (got*got - x) / x
			if rel > 1e-9 || rel < -1e-9 {
				t.Errorf("sqrt(%v) = %v (err %v)", x, got, rel)
			}
		}
	}
}

func TestRenderPanicsWithoutBackBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for missing back buffer")
		}
	}()
	rc := rendercache.New(rendercache.DefaultConfig().Scaled(0.1), &stream.Counter{})
	NewRenderer(rc).RenderFrame(&Frame{})
}

func TestAlignedBindingReadsStableRegion(t *testing.T) {
	// Two renders of the same aligned full-screen sampling must touch the
	// same texture blocks (screen-stable mapping).
	collect := func() map[uint64]bool {
		alloc := memmap.NewAllocator(0x2000000)
		bb := memmap.NewSurface(alloc, 64, 64, 4)
		src := memmap.NewSurface(alloc, 64, 64, 4)
		f := &Frame{
			Width: 64, Height: 64, BackBuffer: bb, Seed: 3,
			Passes: []*Pass{{
				Target: bb,
				Draws: []*Draw{{
					Mesh:     &Mesh{Vertices: memmap.NewBuffer(alloc, 8, 32), Indices: memmap.NewBuffer(alloc, 24, 4), TriCount: 8},
					Coverage: 1.0, Patches: 1,
					Textures: []TextureBinding{{Texture: memmap.TextureFromSurface(src), Scale: 1.0, Aligned: true}},
				}},
			}},
		}
		blocks := map[uint64]bool{}
		rc := rendercache.New(rendercache.DefaultConfig().Scaled(0.05), stream.SinkFunc(func(a stream.Access) {
			if a.Kind == stream.Texture {
				blocks[a.Addr>>6] = true
			}
		}))
		NewRenderer(rc).RenderFrame(f)
		return blocks
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("aligned sampling footprints differ: %d vs %d", len(a), len(b))
	}
	for blk := range a {
		if !b[blk] {
			t.Fatal("aligned sampling not screen-stable")
		}
	}
}
