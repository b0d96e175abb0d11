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

// Port is one of the complex's first-level render caches, named for the
// pipeline requests it serves. The texture port leads into the L1 -> L2
// -> L3 sampler hierarchy; the display color port is the back buffer's
// own color cache, organized like the render target cache.
type Port uint8

const (
	VertexIndex  Port = iota // index buffer reads
	Vertex                   // vertex buffer reads
	HiZ                      // hierarchical depth
	Z                        // depth
	Stencil                  // stencil
	RT                       // render target color: production and blending reads
	Texture                  // texel reads
	DisplayColor             // back buffer color: the displayable color stream
	NumPorts
)

// portKind is the stream kind of each port's accesses and writebacks.
var portKind = [NumPorts]stream.Kind{
	VertexIndex:  stream.Vertex,
	Vertex:       stream.Vertex,
	HiZ:          stream.HiZ,
	Z:            stream.Z,
	Stencil:      stream.Stencil,
	RT:           stream.RT,
	Texture:      stream.Texture,
	DisplayColor: stream.Display,
}

// Geometry returns the geometry of the cache behind port p.
func (c Config) Geometry(p Port) cachesim.Geometry {
	return [NumPorts]cachesim.Geometry{
		VertexIndex:  c.VertexIndex,
		Vertex:       c.Vertex,
		HiZ:          c.HiZ,
		Z:            c.Z,
		Stencil:      c.Stencil,
		RT:           c.RT,
		Texture:      c.TexL1,
		DisplayColor: c.RT,
	}[p]
}

// Complex is the full render cache assembly. Pipeline stages access it
// through its ports; misses and dirty writebacks flow to the downstream
// sink (the LLC model or a trace collector) tagged with their stream
// kind. Back-buffer color output flows through its own color cache and
// reaches the LLC as the displayable color stream.
type Complex struct {
	cfg  Config
	out  stream.Sink
	port [NumPorts]*cachesim.LRUCache
	// The texture port's L1 misses go to texL2, and its misses to texL3.
	texL2, texL3 *cachesim.LRUCache
}

// New builds a render cache complex feeding out.
func New(cfg Config, out stream.Sink) *Complex {
	c := &Complex{cfg: cfg, out: out}
	mk := func(g cachesim.Geometry, k stream.Kind, down stream.Sink) *cachesim.LRUCache {
		cc := cachesim.NewLRUCache(g)
		cc.Downstream = down
		cc.WritebackKind = k
		return cc
	}
	// The texture hierarchy chains L1 -> L2 -> L3 -> out and is
	// read-only (samplers never write textures).
	c.texL3 = mk(cfg.TexL3, stream.Texture, out)
	c.texL2 = mk(cfg.TexL2, stream.Texture, c.texL3)
	for p := range NumPorts {
		down := out
		if p == Texture {
			down = c.texL2
		}
		c.port[p] = mk(cfg.Geometry(p), portKind[p], down)
	}
	// Color output writes whole tiles: the color caches validate write
	// misses locally instead of fetching stale pixels through the LLC.
	// The back buffer's writebacks are tagged as display traffic
	// (Section 2.1: the final pixel colors written to the back buffer),
	// which the UCD policies bypass.
	c.port[RT].NoFetchOnWrite = true
	c.port[DisplayColor].NoFetchOnWrite = true
	return c
}

// Config returns the configuration the complex was built with.
func (c *Complex) Config() Config { return c.cfg }

// Access makes a run of accesses through port p: one to addr, a write
// if write is set, then repeats more to addr's block, of which at least
// one wrote if repeatWrite is set. Only the first can miss, so a run
// reaches the LLC exactly as its accesses would one by one.
func (c *Complex) Access(p Port, addr uint64, write bool, repeats int64, repeatWrite bool) {
	c.port[p].AccessRun(stream.Access{Addr: addr, Kind: portKind[p], Write: write}, repeats, repeatWrite)
}

// Other forwards a miscellaneous access (shader code, constants) straight
// through; these structures are small and read-mostly.
func (c *Complex) Other(addr uint64) {
	c.out.Emit(stream.Access{Addr: addr, Kind: stream.Other})
}

// Flush drains dirty blocks from the writeback caches (the RT, display
// color, Z, HiZ and stencil ports) at frame end so produced surfaces
// reach the LLC stream.
func (c *Complex) Flush() {
	c.port[RT].Flush()
	c.port[DisplayColor].Flush()
	c.port[Z].Flush()
	c.port[HiZ].Flush()
	c.port[Stencil].Flush()
}

// InvalidateTextures resets the texture hierarchy. The pipeline calls
// this when a render target is rebound as a texture within a frame so
// stale sampler data cannot satisfy reads of freshly produced surfaces
// (real GPUs flush sampler caches on such barriers).
func (c *Complex) InvalidateTextures() {
	for _, t := range []*cachesim.LRUCache{c.port[Texture], c.texL2, c.texL3} {
		// Preserve cumulative statistics across the barrier.
		st := t.Stats
		t.Reset()
		t.Stats = st
	}
}

// Stats returns the aggregate hit statistics of every render cache,
// keyed by a short name, for diagnostics.
func (c *Complex) Stats() map[string]cachesim.Stats {
	return map[string]cachesim.Stats{
		"vtxidx": c.port[VertexIndex].Stats,
		"vtx":    c.port[Vertex].Stats,
		"hiz":    c.port[HiZ].Stats,
		"stc":    c.port[Stencil].Stats,
		"rt":     c.port[RT].Stats,
		"rtdisp": c.port[DisplayColor].Stats,
		"z":      c.port[Z].Stats,
		"texL1":  c.port[Texture].Stats,
		"texL2":  c.texL2.Stats,
		"texL3":  c.texL3.Stats,
	}
}
