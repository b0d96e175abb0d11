// Package pipeline models the Direct3D 10/11 rendering pipeline of
// Section 2.1 at the memory-access level. A Frame is a list of render
// passes; each pass binds a render target, optional depth/stencil
// surfaces, and draws whose rasterization, depth testing, texture
// sampling, blending, and color output generate the raw access streams
// that flow through the render cache complex into the LLC.
//
// The model reproduces the structural sources of locality the paper
// characterizes: tiled surface traversal (near-term spatial locality
// captured by the render caches), overlapping geometry re-testing the
// same depth pixels (Z reuse, Figure 9), wrapped MIP-mapped texture
// sampling with bilinear footprints (texture locality, Figure 7), and —
// crucially — multi-pass render-to-texture, where surfaces produced by
// the render target stream are consumed by the texture samplers
// (inter-stream reuse, Figure 6).
package pipeline

import (
	"fmt"
	"math/bits"

	"gspc/internal/cachesim"
	"gspc/internal/memmap"
	"gspc/internal/rendercache"
	"gspc/internal/xrand"
)

// Mesh is an indexed triangle list.
type Mesh struct {
	Vertices *memmap.Buffer
	Indices  *memmap.Buffer
	// TriCount is the number of triangles the mesh contributes per draw.
	TriCount int
}

// TextureBinding attaches a texture to a draw with a sampling scale (the
// texel-to-pixel ratio, which drives MIP level selection) and a filter.
type TextureBinding struct {
	Texture *memmap.Texture
	// Scale is texels advanced per screen pixel at level 0; 1.0 samples
	// the texture at native resolution, larger values push sampling to
	// coarser MIP levels.
	Scale float64
	// Trilinear samples two adjacent MIP levels (8 taps) instead of one
	// (4 taps, bilinear).
	Trilinear bool
	// Aligned fixes the screen-to-texture mapping origin at the
	// normalized coordinates (U0, V0), as for screen-space sources:
	// shadow map lookups, post-processing reads of earlier render
	// targets. Draws at different screen positions then sample disjoint
	// regions of the source, and a full-screen aligned draw at Scale
	// srcW/W consumes the source exactly once. Unaligned bindings get a
	// pseudo-random per-draw origin (distinct objects enter a material
	// texture at unrelated places).
	Aligned bool
	U0, V0  float64
}

// Draw is one draw call: a mesh rasterized over a portion of the target,
// shaded with a set of bound textures.
type Draw struct {
	Mesh     *Mesh
	Textures []TextureBinding
	// Coverage is the fraction of the render target area the draw
	// covers; the rasterizer splits it into Patches rectangular patches
	// at pseudo-random positions (triangle clusters in screen space).
	Coverage float64
	Patches  int
	// ZPassRate is the fraction of depth tests that pass (survive
	// occlusion). Failed pixels are not shaded and produce no color.
	ZPassRate float64
	// Blend makes this draw's color output read-modify-write (render
	// target loads before stores), as for transparent geometry.
	Blend bool
	// HiZRejectRate is the fraction of tiles rejected wholesale by the
	// hierarchical depth test before any per-pixel work.
	HiZRejectRate float64
}

// Pass is one rendering pass.
type Pass struct {
	// Target receives pixel colors; nil for depth-only passes (shadow
	// map rendering).
	Target *memmap.Surface
	// ExtraTargets are additional simultaneously bound render targets
	// (DirectX 10 allows eight); deferred-shading G-buffer passes write
	// several. Each shaded pixel stores to every extra target.
	ExtraTargets []*memmap.Surface
	// Depth enables the depth test against this Z buffer when non-nil.
	Depth *memmap.Surface
	// HiZ is the hierarchical depth buffer paired with Depth.
	HiZ *memmap.Surface
	// Stencil enables the stencil test when non-nil.
	Stencil *memmap.Surface
	// SamplesDynamic marks a pass that samples a texture aliasing a
	// render target produced earlier in the frame; the texture hierarchy
	// is invalidated before the pass (sampler cache barrier).
	SamplesDynamic bool
	Draws          []*Draw
}

// Frame is a complete frame rendering job.
type Frame struct {
	Width, Height int
	Passes        []*Pass
	// BackBuffer is the final displayable surface. Passes that target
	// it go through the display-color port instead of the RT port, so
	// the display stream is what that port's cache fetches and writes
	// back for the pixels the passes write; there is no resolve step,
	// and a back-buffer block no pass writes never reaches the LLC.
	BackBuffer *memmap.Surface
	// ConstBase/ConstBlocks locate the shader constant region touched
	// per draw ("other" stream).
	ConstBase   uint64
	ConstBlocks int
	// Seed drives every stochastic rasterization choice for the frame.
	Seed uint64
}

// HiZGranularity is the screen-pixel footprint (per side) of one HiZ
// entry: the hierarchical Z buffer stores one min/max entry per 4x4 pixel
// region (the finest HiZ level, which dominates HiZ traffic).
const HiZGranularity = 4

// ZBytesPerPixel is the effective storage per depth sample. Real GPUs
// keep the depth buffer compressed (typically 4:1 or better for plane-
// encodable tiles); we model the bandwidth effect by storing 1 byte per
// 32-bit depth sample, so one 64-byte block carries an 8x8 pixel depth
// tile. DESIGN.md documents this substitution.
const ZBytesPerPixel = 1

// HiZBytesPerEntry is the size of one hierarchical depth entry (min, max,
// coverage mask, and the coarser pyramid levels amortized onto the finest
// level, which dominates traffic).
const HiZBytesPerEntry = 8

// texCtx is the per-draw sampling state of one bound texture.
type texCtx struct {
	level0, level1 texLevel // level1 binds no surface unless trilinear
	u0, v0         float64
	scale          float64
}

// texLevel is a MIP level bound for sampling, with exact reciprocal
// remainders by its width and height, so wrapping a tap divides nothing.
type texLevel struct {
	s    *memmap.Surface
	w, h cachesim.Fastmod
}

func bindLevel(s *memmap.Surface) texLevel {
	return texLevel{s: s, w: cachesim.NewFastmod(uint64(s.Width)), h: cachesim.NewFastmod(uint64(s.Height))}
}

// Renderer executes frames against a render cache complex.
type Renderer struct {
	rc  *rendercache.Complex
	rng *xrand.RNG

	// b collects the render's requests; hand passes it on once it runs
	// out of room and returns the batch to fill next.
	b    *batch
	hand func(*batch) *batch

	// memo holds a memo per port, indexed by port.
	memo [rendercache.NumPorts]memo
	// texByBlock says the texture port's cache has at least two ways, so
	// sampleBilinear may group a footprint's taps by block.
	texByBlock bool
	// texs holds the sampling state of the current draw's textures,
	// reused from draw to draw.
	texs []texCtx

	// PixelsShaded counts pixels that survived depth testing and were
	// shaded; exported for workload calibration tests.
	PixelsShaded int64
	// PixelsRejected counts pixels killed by HiZ or the depth test.
	PixelsRejected int64

	backBuffer *memmap.Surface
}

// memo names the block of a port's previous request and the entry of
// the batch being filled whose run holds that request.
type memo struct {
	last  uint64 // block number, or noBlock
	at    int
	shift uint8 // log2 of the port's cache block size
}

// noBlock is no block's number: cache blocks are at least two bytes.
const noBlock = ^uint64(0)

// NewRenderer returns a renderer emitting into rc. A renderer whose rc
// is nil only records requests, folding and grouping them as for the
// default geometry.
func NewRenderer(rc *rendercache.Complex) *Renderer {
	cfg := rendercache.DefaultConfig()
	if rc != nil {
		cfg = rc.Config()
	}
	r := &Renderer{rc: rc, texByBlock: cfg.Geometry(rendercache.Texture).Ways >= 2}
	for p := range rendercache.NumPorts {
		r.memo[p].shift = uint8(bits.TrailingZeros(uint(cfg.Geometry(p).BlockSize)))
	}
	return r
}

// RenderFrame executes every pass of the frame; writes to the back
// buffer take the display-color port (see Frame.BackBuffer), and no
// resolve follows the last pass. The render caches filter on a goroutine
// of their own while the frame rasterizes, seeing the same requests in
// the same order as a direct call per request would, and RenderFrame
// returns only after every request has been applied, so the complex's
// Stats, its sink and the pixel counters are complete. A panic raised
// while applying requests (by the sink or the cache model) stops the
// render and re-raises here with its own value; a runtime error is
// wrapped with the stack it was raised on (see panics.Carry).
func (r *Renderer) RenderFrame(f *Frame) {
	if f.BackBuffer == nil {
		panic("pipeline: frame has no back buffer")
	}
	s := startApplyStage(r.rc)
	defer func() {
		s.stop()
		if s.failed {
			recover() // the renderer's stageStopped, if it got that far
			panic(s.val)
		}
	}()
	s.full <- r.render(f, <-s.free, s.hand)
}

// render runs the frame's passes, recording requests into b and giving
// each batch that runs out of room to hand, which returns the batch to
// fill next. It returns the last, partly filled batch.
func (r *Renderer) render(f *Frame, b *batch, hand func(*batch) *batch) *batch {
	r.rng = xrand.New(f.Seed)
	r.backBuffer = f.BackBuffer
	r.hand = hand
	r.fill(b)
	for pi, p := range f.Passes {
		if p.SamplesDynamic {
			r.barrier(opInvalidateTextures, opTexture)
		}
		r.renderPass(f, p, uint64(pi))
		// Unbinding the pass's surfaces flushes dirty render cache
		// blocks to the LLC so later passes (and the display engine)
		// observe produced data there.
		r.barrier(opFlush, opRT, opDisplayColor, opZ, opHiZ, opStencil) // the ports Flush drains
	}
	b = r.b
	r.b, r.hand = nil, nil
	return b
}

// room makes space for the next k requests, handing the current batch
// on first if it has fewer than k free entries. Every run of req calls
// follows a room call that covers it; split this way, both inline into
// the pixel loop.
func (r *Renderer) room(k int) {
	if r.b.n+k > batchLen {
		r.handOn()
	}
}

// handOn hands the batch on and fills the one hand returns. It stays
// out of line, so room inlines.
//
//go:noinline
func (r *Renderer) handOn() { r.fill(r.hand(r.b)) }

// fill makes b the batch to fill: its repeat counts start at zero, and
// no memo names an entry of it.
func (r *Renderer) fill(b *batch) {
	clear(b.rep[:])
	r.b = b
	r.forget()
}

// barrier records a Flush or a texture invalidation, and forgets the
// memos of the ports whose caches it changes: their caches must see a
// later request after the barrier, so it may not fold into an earlier
// run.
func (r *Renderer) barrier(op reqOp, ports ...reqOp) {
	r.room(1)
	r.b.add(0, op)
	for _, p := range ports {
		r.memo[p].last = noBlock
	}
}

// forget clears every port's memo.
func (r *Renderer) forget() {
	for p := range r.memo {
		r.memo[p].last = noBlock
	}
}

// req records one request through a port, in space room made. A request
// for the block of its port's previous request in the same batch, with
// no barrier between them, repeats it: that request left the block most
// recent in the port's cache, and nothing has reached the cache since,
// so the repeat hits and changes only counters and the dirty bit. req
// folds it into the entry of its run instead of recording it.
func (r *Renderer) req(addr uint64, op reqOp) {
	m, b := &r.memo[op&^opWrite], r.b
	if blk := addr >> m.shift; blk != m.last {
		m.last, m.at = blk, b.n
		b.add(addr, op)
	} else {
		b.rep[m.at]++
		b.op[m.at] |= op & opWrite >> 1
	}
}

// repeat folds a request that repeats its port's previous request into
// that request's run, with no memo lookup: the second request of a
// read-modify-write pair, in space room made for the pair.
func (r *Renderer) repeat(op reqOp) {
	b, at := r.b, r.memo[op&^opWrite].at
	b.rep[at]++
	b.op[at] |= op & opWrite >> 1
}

func (r *Renderer) renderPass(f *Frame, p *Pass, passID uint64) {
	rng := r.rng.Fork(passID)
	for di, d := range p.Draws {
		r.renderDraw(f, p, d, rng.Fork(uint64(di)))
	}
}

func (r *Renderer) renderDraw(f *Frame, p *Pass, d *Draw, rng *xrand.RNG) {
	r.processGeometry(d, rng)
	r.touchConstants(f, rng)

	target := p.Target
	if target == nil {
		target = p.Depth
	}
	if target == nil {
		return // nothing to rasterize against
	}
	w, h := target.Width, target.Height

	// Establish the per-draw texture mappings once: all patches of a draw
	// share one affine screen-to-texture function, so a draw's footprint
	// in a texture is coherent and two draws overlap only where their
	// screen coverage (aligned sources) or random origins (materials)
	// overlap.
	texs := r.texs[:0]
	for _, tb := range d.Textures {
		lod, frac := lodOf(tb.Scale)
		lv0 := tb.Texture.Level(lod)
		var lv1 texLevel
		if tb.Trilinear && frac > 0.25 && lod+1 < tb.Texture.NumLevels() {
			lv1 = bindLevel(tb.Texture.Level(lod + 1))
		}
		step := tb.Scale / float64(int(1)<<lod)
		u0 := rng.Float64() * float64(lv0.Width)
		v0 := rng.Float64() * float64(lv0.Height)
		if tb.Aligned {
			u0 = tb.U0 * float64(lv0.Width)
			v0 = tb.V0 * float64(lv0.Height)
		}
		texs = append(texs, texCtx{level0: bindLevel(lv0), level1: lv1, u0: u0, v0: v0, scale: step})
	}
	r.texs = texs

	patches := d.Patches
	if patches < 1 {
		patches = 1
	}
	// Split the covered area into patches of a pseudo-random aspect.
	area := d.Coverage * float64(w) * float64(h) / float64(patches)
	if area < 1 {
		area = 1
	}
	for pi := 0; pi < patches; pi++ {
		prng := rng.Fork(uint64(pi))
		aspect := prng.Range(0.5, 2.0)
		pw := int(sqrt(area * aspect))
		if pw < 1 {
			pw = 1
		}
		if pw > w {
			pw = w
		}
		ph := int(area) / pw
		if ph < 1 {
			ph = 1
		}
		if ph > h {
			ph = h
		}
		px := prng.Intn(max(1, w-pw+1))
		py := prng.Intn(max(1, h-ph+1))
		r.rasterizePatch(p, d, texs, px, py, pw, ph, prng)
	}
}

// processGeometry reads the index and vertex streams for the draw.
// Indices are read sequentially; vertex references follow a triangle-
// strip-like pattern so the vertex cache captures the short-term reuse of
// shared vertices, as real input assemblers do.
func (r *Renderer) processGeometry(d *Draw, rng *xrand.RNG) {
	m := d.Mesh
	if m == nil || m.TriCount == 0 {
		return
	}
	nv := m.Vertices.Count()
	if nv == 0 {
		return
	}
	base := rng.Intn(nv)
	idxCount := m.Indices.Count()
	for t := 0; t < m.TriCount; t++ {
		for k := 0; k < 3; k++ {
			i := (t*3 + k) % max(1, idxCount)
			r.room(2)
			r.req(m.Indices.ElemAddr(i), opVertexIndex)
			// Strip locality: triangle t reuses vertices t and t+1 of
			// triangle t-1 and introduces one new vertex.
			v := (base + t + k) % nv
			r.req(m.Vertices.ElemAddr(v), opVertex)
		}
	}
}

// touchConstants models shader constant/state fetches per draw.
func (r *Renderer) touchConstants(f *Frame, rng *xrand.RNG) {
	if f.ConstBlocks <= 0 {
		return
	}
	r.room(4)
	for i := 0; i < 4; i++ {
		blk := rng.Intn(f.ConstBlocks)
		r.b.add(f.ConstBase+uint64(blk*memmap.BlockSize), opOther)
	}
}

// rasterizePatch traverses the patch tile-by-tile in raster order,
// performing hierarchical and per-pixel depth tests, texture sampling,
// stenciling, and color output.
func (r *Renderer) rasterizePatch(p *Pass, d *Draw, texs []texCtx, px, py, pw, ph int, rng *xrand.RNG) {
	target := p.Target
	if target == nil {
		target = p.Depth
	}
	tw, th := target.TileW(), target.TileH()

	tx0, ty0 := px/tw, py/th
	tx1, ty1 := (px+pw-1)/tw, (py+ph-1)/th
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			x0, y0 := tx*tw, ty*th
			r.room(3) // the color read and two HiZ requests

			// Patch-boundary tiles are only partially covered, so the
			// color pipeline must read-modify-write them (interior tiles
			// are fully overwritten and skip the fetch).
			if p.Target != nil && (tx == tx0 || tx == tx1 || ty == ty0 || ty == ty1) {
				ca := p.Target.Addr(x0, y0)
				if p.Target == r.backBuffer {
					r.req(ca, opDisplayColor)
				} else {
					r.req(ca, opRT)
				}
			}

			// Hierarchical depth test: one HiZ entry per 8x8 region,
			// tested once per tile.
			if p.Depth != nil && p.HiZ != nil {
				ha := p.HiZ.Addr(x0/HiZGranularity, y0/HiZGranularity)
				r.req(ha, opHiZ)
				if rng.Bool(d.HiZRejectRate) {
					r.PixelsRejected += int64(tw * th)
					continue
				}
				// The HiZ min/max is updated when the tile's depth
				// range changes (a fraction of tiles).
				if rng.Bool(0.25) {
					r.repeat(opHiZ | opWrite)
				}
			}

			for y := y0; y < y0+th; y++ {
				for x := x0; x < x0+tw; x++ {
					r.shadePixel(p, d, texs, x, y, rng)
				}
			}
		}
	}
}

func (r *Renderer) shadePixel(p *Pass, d *Draw, texs []texCtx, x, y int, rng *xrand.RNG) {
	// Depth test: read the stored depth, compare, conditionally write.
	r.room(4) // with the stencil test's two
	if p.Depth != nil {
		za := p.Depth.Addr(x, y)
		r.req(za, opZ)
		if !rng.Bool(d.ZPassRate) {
			r.PixelsRejected++
			return
		}
		r.repeat(opZ | opWrite)
	}

	// Stencil test (read; occasional mask update).
	if p.Stencil != nil {
		sa := p.Stencil.Addr(x, y)
		r.req(sa, opStencil)
		if rng.Bool(0.1) {
			r.repeat(opStencil | opWrite)
		}
	}

	// Texture sampling: a bilinear footprint of 4 texels per level, with
	// wrap addressing (tiled materials revisit the same texels — the
	// source of far-flung intra-stream texture reuse).
	for i := range texs {
		t := &texs[i]
		u := t.u0 + float64(x)*t.scale
		v := t.v0 + float64(y)*t.scale
		r.sampleBilinear(&t.level0, u, v)
		if t.level1.s != nil {
			r.sampleBilinear(&t.level1, u/2, v/2)
		}
	}

	// Color output: blending reads the destination first. Colors written
	// to the back buffer are the displayable color stream of Section 2.1
	// (displayable color is still a render target from the policies'
	// viewpoint, which is exactly what the UCD variants exploit).
	r.room(2)
	if p.Target != nil {
		ca := p.Target.Addr(x, y)
		op := opRT
		if p.Target == r.backBuffer {
			op = opDisplayColor
		}
		if d.Blend {
			r.req(ca, op)
			r.repeat(op | opWrite)
		} else {
			r.req(ca, op|opWrite)
		}
	}
	for _, et := range p.ExtraTargets {
		r.room(1)
		r.req(et.Addr(x, y), opRT|opWrite)
	}
	r.PixelsShaded++
}

// sampleBilinear issues the four taps of a bilinear filter with wrap
// addressing on the given MIP level. Each axis wraps once: the second
// tap is the first plus one, wrapped past the edge to zero.
//
// The taps go in raster order, except when both rows span the same two
// blocks A and B of the texture port's cache: then they go A A B B
// instead of A B A B. Both orders touch A first and B last, so in an
// LRU cache of at least two ways, where the first A is still resident
// when the second comes, they leave the same hits, recency, Stats and
// downstream accesses. A one-way cache can tell them apart, so a
// renderer for one keeps raster order. A tap that names the previous
// tap's block goes through repeat, with no memo lookup.
func (r *Renderer) sampleBilinear(l *texLevel, u, v float64) {
	s := l.s
	u0, v0 := wrap(int(u), s.Width, l.w), wrap(int(v), s.Height, l.h)
	u1, v1 := u0+1, v0+1
	if u1 == s.Width {
		u1 = 0
	}
	if v1 == s.Height {
		v1 = 0
	}
	t0, t1, t2, t3 := s.Addr(u0, v0), s.Addr(u1, v0), s.Addr(u0, v1), s.Addr(u1, v1)
	sh := r.memo[opTexture].shift
	b0, b1, b2, b3 := t0>>sh, t1>>sh, t2>>sh, t3>>sh
	if r.texByBlock && b2 == b0 && b3 == b1 && b1 != b0 {
		t1, t2 = t2, t1
		b1, b2 = b2, b1
	}
	r.room(4)
	r.req(t0, opTexture)
	if b1 == b0 {
		r.repeat(opTexture)
	} else {
		r.req(t1, opTexture)
	}
	if b2 == b1 {
		r.repeat(opTexture)
	} else {
		r.req(t2, opTexture)
	}
	if b3 == b2 {
		r.repeat(opTexture)
	} else {
		r.req(t3, opTexture)
	}
}

// wrap returns v modulo n in [0, n), where m reduces modulo n: exact
// for every v, with no division. A negative v reduces through
// ^v = -v-1 ≥ 0, since v mod n = n-1 - (^v mod n); the sign mask s
// selects that form without a branch.
func wrap(v, n int, m cachesim.Fastmod) int {
	s := v >> 63
	return (int(m.Mod(uint64(v^s))) ^ s) + n&s
}

// lodOf converts a texel-to-pixel scale into a MIP level and the
// fractional part used to decide trilinear blending. Levels are chosen by
// rounding so the effective step on the selected level stays near one
// texel per pixel, as real MIP selection does.
func lodOf(scale float64) (lod int, frac float64) {
	if scale <= 1 {
		return 0, 0
	}
	l := 0
	s := scale
	for s >= 1.5 {
		s /= 2
		l++
	}
	f := s - 1
	if f < 0 {
		f = 0
	}
	return l, f
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for patch sizing.
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Validate checks frame structural invariants and returns a descriptive
// error for malformed frames (used by workload tests).
func (f *Frame) Validate() error {
	if f.BackBuffer == nil {
		return fmt.Errorf("pipeline: frame missing back buffer")
	}
	if f.Width <= 0 || f.Height <= 0 {
		return fmt.Errorf("pipeline: invalid frame size %dx%d", f.Width, f.Height)
	}
	for i, p := range f.Passes {
		if p.Target == nil && p.Depth == nil {
			return fmt.Errorf("pipeline: pass %d has neither target nor depth", i)
		}
		if p.HiZ != nil && p.Depth == nil {
			return fmt.Errorf("pipeline: pass %d has HiZ without depth", i)
		}
		for j, d := range p.Draws {
			if d.Coverage <= 0 || d.Coverage > 8 {
				return fmt.Errorf("pipeline: pass %d draw %d coverage %f out of range", i, j, d.Coverage)
			}
			if d.ZPassRate < 0 || d.ZPassRate > 1 {
				return fmt.Errorf("pipeline: pass %d draw %d z pass rate %f out of range", i, j, d.ZPassRate)
			}
		}
	}
	return nil
}
