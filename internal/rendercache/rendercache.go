// Package rendercache models the GPU-internal render caches that sit
// between the rendering pipeline and the LLC (Figure 3 of the paper):
// vertex index, vertex, HiZ, Z, stencil, and render target caches plus a
// three-level texture cache hierarchy. The LLC traffic in the paper is
// exactly the miss-and-writeback stream of these caches; this package
// filters the raw pipeline accesses accordingly. Every render cache is a
// cachesim.LRUCache, which keeps each set in recency order and gives
// access for access what cachesim.Cache with policy.LRU would.
//
// Sizes follow Section 4: 1 KB 16-way vertex index, 16 KB 128-way vertex,
// 12 KB 24-way HiZ, 16 KB 16-way stencil, 24 KB 24-way render target,
// 32 KB 32-way Z, and a 384 KB 48-way L3 texture cache. The paper does
// not give L1/L2 texture sizes; we use 8 KB 16-way and 64 KB 16-way
// (documented substitution in DESIGN.md).
package rendercache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// Config holds the geometry of every render cache.
type Config struct {
	VertexIndex cachesim.Geometry
	Vertex      cachesim.Geometry
	HiZ         cachesim.Geometry
	Stencil     cachesim.Geometry
	RT          cachesim.Geometry
	Z           cachesim.Geometry
	TexL1       cachesim.Geometry
	TexL2       cachesim.Geometry
	TexL3       cachesim.Geometry
}

// DefaultConfig returns the paper's render cache organization.
func DefaultConfig() Config {
	g := func(kb, ways int) cachesim.Geometry {
		return cachesim.Geometry{SizeBytes: kb << 10, Ways: ways, BlockSize: 64}
	}
	return Config{
		VertexIndex: g(1, 16),
		Vertex:      g(16, 128),
		HiZ:         g(12, 24),
		Stencil:     g(16, 16),
		RT:          g(24, 24),
		Z:           g(32, 32),
		TexL1:       g(8, 16),
		TexL2:       g(64, 16),
		TexL3:       g(384, 48),
	}
}

// Scaled returns the configuration with every capacity multiplied by
// scale, floored at one set, keeping associativity and block size.
// Synthesis passes the linear frame scale, not its square: the render
// caches' working sets are rows of surface tiles, which grow with the
// frame's width, so scaling them linearly keeps the filtered LLC stream
// mix representative (harness.RunAblFrontCache measures the area rule
// against it).
func (c Config) Scaled(scale float64) Config {
	s := func(g cachesim.Geometry) cachesim.Geometry {
		setBytes := g.Ways * g.BlockSize
		sets := int(float64(g.SizeBytes)*scale) / setBytes
		if sets < 1 {
			sets = 1
		}
		g.SizeBytes = sets * setBytes
		return g
	}
	return Config{
		VertexIndex: s(c.VertexIndex),
		Vertex:      s(c.Vertex),
		HiZ:         s(c.HiZ),
		Stencil:     s(c.Stencil),
		RT:          s(c.RT),
		Z:           s(c.Z),
		TexL1:       s(c.TexL1),
		TexL2:       s(c.TexL2),
		TexL3:       s(c.TexL3),
	}
}

// Digest returns a short stable hash over every cache geometry in the
// configuration. Two configurations produce the same LLC trace for a
// frame iff they are identical, so the digest is the configuration
// component of frame-trace cache keys.
func (c Config) Digest() string {
	h := sha256.New()
	for _, g := range []cachesim.Geometry{
		c.VertexIndex, c.Vertex, c.HiZ, c.Stencil, c.RT, c.Z,
		c.TexL1, c.TexL2, c.TexL3,
	} {
		fmt.Fprintf(h, "%d/%d/%d|", g.SizeBytes, g.Ways, g.BlockSize)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Complex is the full render cache assembly. Pipeline stages call the
// typed access methods; misses and dirty writebacks flow to the
// downstream sink (the LLC model or a trace collector) tagged with their
// stream kind. Back-buffer color output flows through its own color
// cache and reaches the LLC as the displayable color stream.
type Complex struct {
	out stream.Sink

	vtxIndex *cachesim.LRUCache
	vtx      *cachesim.LRUCache
	hiz      *cachesim.LRUCache
	stencil  *cachesim.LRUCache
	rt       *cachesim.LRUCache
	rtDisp   *cachesim.LRUCache
	z        *cachesim.LRUCache
	texL1    *cachesim.LRUCache
	texL2    *cachesim.LRUCache
	texL3    *cachesim.LRUCache
}

// New builds a render cache complex feeding out.
func New(cfg Config, out stream.Sink) *Complex {
	c := &Complex{out: out}
	mk := func(g cachesim.Geometry, k stream.Kind, down stream.Sink) *cachesim.LRUCache {
		cc := cachesim.NewLRUCache(g)
		cc.Downstream = down
		cc.WritebackKind = k
		return cc
	}
	c.vtxIndex = mk(cfg.VertexIndex, stream.Vertex, out)
	c.vtx = mk(cfg.Vertex, stream.Vertex, out)
	c.hiz = mk(cfg.HiZ, stream.HiZ, out)
	c.stencil = mk(cfg.Stencil, stream.Stencil, out)
	c.rt = mk(cfg.RT, stream.RT, out)
	// Color output writes whole tiles: the RT cache validates write
	// misses locally instead of fetching stale pixels through the LLC.
	c.rt.NoFetchOnWrite = true
	// The back buffer's color output is the displayable color stream
	// (Section 2.1: the final pixel colors written to the back buffer);
	// it shares the RT cache organization but its writebacks are tagged
	// as display traffic, which the UCD policies bypass.
	c.rtDisp = mk(cfg.RT, stream.Display, out)
	c.rtDisp.NoFetchOnWrite = true
	c.z = mk(cfg.Z, stream.Z, out)
	// The texture hierarchy chains L1 -> L2 -> L3 -> out and is
	// read-only (samplers never write textures).
	c.texL3 = mk(cfg.TexL3, stream.Texture, out)
	c.texL2 = mk(cfg.TexL2, stream.Texture, c.texL3)
	c.texL1 = mk(cfg.TexL1, stream.Texture, c.texL2)
	return c
}

// VertexIndex reads an index buffer element.
func (c *Complex) VertexIndex(addr uint64) {
	c.vtxIndex.Access(stream.Access{Addr: addr, Kind: stream.Vertex})
}

// Vertex reads a vertex buffer element.
func (c *Complex) Vertex(addr uint64) {
	c.vtx.Access(stream.Access{Addr: addr, Kind: stream.Vertex})
}

// HiZ accesses the hierarchical depth buffer.
func (c *Complex) HiZ(addr uint64, write bool) {
	c.hiz.Access(stream.Access{Addr: addr, Kind: stream.HiZ, Write: write})
}

// Z accesses the depth buffer.
func (c *Complex) Z(addr uint64, write bool) {
	c.z.Access(stream.Access{Addr: addr, Kind: stream.Z, Write: write})
}

// Stencil accesses the stencil buffer.
func (c *Complex) Stencil(addr uint64, write bool) {
	c.stencil.Access(stream.Access{Addr: addr, Kind: stream.Stencil, Write: write})
}

// RT accesses a render target (pixel color production or blending read).
func (c *Complex) RT(addr uint64, write bool) {
	c.rt.Access(stream.Access{Addr: addr, Kind: stream.RT, Write: write})
}

// Texture reads a texel through the three-level sampler hierarchy.
func (c *Complex) Texture(addr uint64) {
	c.texL1.Access(stream.Access{Addr: addr, Kind: stream.Texture})
}

// DisplayColor accesses the back buffer (displayable color production,
// or a blending read of it).
func (c *Complex) DisplayColor(addr uint64, write bool) {
	c.rtDisp.Access(stream.Access{Addr: addr, Kind: stream.Display, Write: write})
}

// Other forwards a miscellaneous access (shader code, constants) straight
// through; these structures are small and read-mostly.
func (c *Complex) Other(addr uint64) {
	c.out.Emit(stream.Access{Addr: addr, Kind: stream.Other})
}

// Flush drains dirty blocks from the writeback caches (RT, Z, HiZ,
// stencil) at frame end so produced surfaces reach the LLC stream.
func (c *Complex) Flush() {
	c.rt.Flush()
	c.rtDisp.Flush()
	c.z.Flush()
	c.hiz.Flush()
	c.stencil.Flush()
}

// InvalidateTextures resets the texture hierarchy. The pipeline calls
// this when a render target is rebound as a texture within a frame so
// stale sampler data cannot satisfy reads of freshly produced surfaces
// (real GPUs flush sampler caches on such barriers).
func (c *Complex) InvalidateTextures() {
	s1, s2, s3 := c.texL1.Stats, c.texL2.Stats, c.texL3.Stats
	c.texL1.Reset()
	c.texL2.Reset()
	c.texL3.Reset()
	// Preserve cumulative statistics across the barrier.
	c.texL1.Stats = s1
	c.texL2.Stats = s2
	c.texL3.Stats = s3
}

// Stats returns the aggregate hit statistics of every render cache,
// keyed by a short name, for diagnostics.
func (c *Complex) Stats() map[string]cachesim.Stats {
	return map[string]cachesim.Stats{
		"vtxidx": c.vtxIndex.Stats,
		"vtx":    c.vtx.Stats,
		"hiz":    c.hiz.Stats,
		"stc":    c.stencil.Stats,
		"rt":     c.rt.Stats,
		"rtdisp": c.rtDisp.Stats,
		"z":      c.z.Stats,
		"texL1":  c.texL1.Stats,
		"texL2":  c.texL2.Stats,
		"texL3":  c.texL3.Stats,
	}
}
