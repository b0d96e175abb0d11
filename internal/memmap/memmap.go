// Package memmap models the GPU's graphics address space: a bump
// allocator for surfaces and buffers, tiled 2D surface layouts (a 64-byte
// cache block holds a square tile of pixels, as in real GPU color/depth
// layouts), and MIP-mapped texture chains. The rendering pipeline
// (internal/pipeline) computes every memory address it touches through
// this package, so the reuse structure seen by the caches follows from
// surface geometry rather than from synthetic randomness.
package memmap

import (
	"fmt"
	"math/bits"
)

// BlockSize is the cache block (and tile) size in bytes across the model.
const BlockSize = 64

// Allocator hands out non-overlapping address ranges. Distinct frames use
// distinct allocators with the same base to model a stable per-frame heap.
type Allocator struct {
	next uint64
}

// NewAllocator returns an allocator starting at base.
func NewAllocator(base uint64) *Allocator {
	a := &Allocator{next: base}
	a.align(BlockSize)
	return a
}

func (a *Allocator) align(n uint64) {
	if rem := a.next % n; rem != 0 {
		a.next += n - rem
	}
}

// Alloc reserves size bytes aligned to BlockSize and returns the base.
func (a *Allocator) Alloc(size uint64) uint64 {
	a.align(BlockSize)
	base := a.next
	a.next += size
	return base
}

// Used returns the highest allocated address.
func (a *Allocator) Used() uint64 { return a.next }

// Surface is a tiled 2D pixel array. Pixels are BytesPerPixel wide and
// grouped into tiles of TileW x TileH pixels such that one tile occupies
// exactly one cache block; tiles are laid out row-major.
type Surface struct {
	Base          uint64
	Width, Height int
	BytesPerPixel int

	// Tile dimensions and the pixel size are powers of two (tileShape),
	// so Addr splits a coordinate into tile and in-tile parts with
	// shifts and masks: tileW = 1<<tileWShift, and so on.
	tileWShift, tileHShift, pixelShift uint
	tilesPerRow                        int
	tilesPerCol                        int

	layout     Layout
	mortonSide int
}

// tileShape returns the tile dimensions for a pixel size: 4x4 for 32-bit
// pixels, 8x8 for 8-bit (stencil), 4x2 for 64-bit.
func tileShape(bpp int) (w, h int) {
	switch bpp {
	case 1:
		return 8, 8
	case 2:
		return 8, 4
	case 4:
		return 4, 4
	case 8:
		return 4, 2
	case 16:
		return 2, 2
	default:
		panic(fmt.Sprintf("memmap: unsupported pixel size %d", bpp))
	}
}

// NewSurface allocates a w x h surface with the given pixel size.
func NewSurface(a *Allocator, w, h, bpp int) *Surface {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("memmap: invalid surface %dx%d", w, h))
	}
	tw, th := tileShape(bpp)
	s := &Surface{
		Width:         w,
		Height:        h,
		BytesPerPixel: bpp,
		tileWShift:    uint(bits.TrailingZeros(uint(tw))),
		tileHShift:    uint(bits.TrailingZeros(uint(th))),
		pixelShift:    uint(bits.TrailingZeros(uint(bpp))),
		tilesPerRow:   (w + tw - 1) / tw,
		tilesPerCol:   (h + th - 1) / th,
	}
	s.Base = a.Alloc(uint64(s.tilesPerRow*s.tilesPerCol) * BlockSize)
	return s
}

// SizeBytes returns the allocated footprint (including any Morton
// padding).
func (s *Surface) SizeBytes() int { return s.footprintBlocks() * BlockSize }

// TileW returns the tile width in pixels.
func (s *Surface) TileW() int { return 1 << s.tileWShift }

// TileH returns the tile height in pixels.
func (s *Surface) TileH() int { return 1 << s.tileHShift }

// TilesPerRow returns the number of tiles per surface row.
func (s *Surface) TilesPerRow() int { return s.tilesPerRow }

// TilesPerCol returns the number of tile rows.
func (s *Surface) TilesPerCol() int { return s.tilesPerCol }

// clamp limits v to [0, n-1].
func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Addr returns the byte address of pixel (x, y), clamping coordinates to
// the surface (texture samplers clamp at edges).
func (s *Surface) Addr(x, y int) uint64 {
	x = clamp(x, s.Width)
	y = clamp(y, s.Height)
	tile := s.tileIndex(x>>s.tileWShift, y>>s.tileHShift)
	inTile := (y&(1<<s.tileHShift-1))<<s.tileWShift | x&(1<<s.tileWShift-1)
	return s.Base + uint64(tile*BlockSize+inTile<<s.pixelShift)
}

// TileAddr returns the block address of tile (tx, ty).
func (s *Surface) TileAddr(tx, ty int) uint64 {
	tx = clamp(tx, s.tilesPerRow)
	ty = clamp(ty, s.tilesPerCol)
	return s.Base + uint64(s.tileIndex(tx, ty)*BlockSize)
}

// Contains reports whether addr falls inside the surface allocation.
func (s *Surface) Contains(addr uint64) bool {
	return addr >= s.Base && addr < s.Base+uint64(s.SizeBytes())
}

// Buffer is a linear allocation (vertex data, index data, constants).
type Buffer struct {
	Base   uint64
	Size   int
	Stride int
}

// NewBuffer allocates a linear buffer of count elements of stride bytes.
func NewBuffer(a *Allocator, count, stride int) *Buffer {
	b := &Buffer{Size: count * stride, Stride: stride}
	b.Base = a.Alloc(uint64(b.Size))
	return b
}

// ElemAddr returns the address of element i (clamped to the buffer).
func (b *Buffer) ElemAddr(i int) uint64 {
	if b.Size == 0 {
		return b.Base
	}
	off := i * b.Stride
	if off < 0 {
		off = 0
	}
	if off >= b.Size {
		off = b.Size - b.Stride
	}
	return b.Base + uint64(off)
}

// Count returns the number of elements.
func (b *Buffer) Count() int {
	if b.Stride == 0 {
		return 0
	}
	return b.Size / b.Stride
}

// Texture is a MIP-mapped texture: a pyramid of surfaces, level 0 the
// largest, each subsequent level half the size [48].
type Texture struct {
	Levels []*Surface
	// Dynamic marks a texture whose level-0 storage aliases a render
	// target produced earlier in the frame (render-to-texture).
	Dynamic bool
}

// NewTexture allocates a MIP chain starting at w x h with the given pixel
// size, down to 1x1 or maxLevels levels, whichever comes first.
func NewTexture(a *Allocator, w, h, bpp, maxLevels int) *Texture {
	t := &Texture{}
	for lvl := 0; lvl < maxLevels && w >= 1 && h >= 1; lvl++ {
		t.Levels = append(t.Levels, NewSurface(a, w, h, bpp))
		if w == 1 && h == 1 {
			break
		}
		w = max(1, w/2)
		h = max(1, h/2)
	}
	return t
}

// TextureFromSurface wraps an existing render target surface as a
// single-level dynamic texture (render-to-texture aliasing: the sampler
// reads the very blocks the render target stream produced).
func TextureFromSurface(s *Surface) *Texture {
	return &Texture{Levels: []*Surface{s}, Dynamic: true}
}

// Level returns the surface of MIP level lvl, clamped to the chain.
func (t *Texture) Level(lvl int) *Surface {
	return t.Levels[clamp(lvl, len(t.Levels))]
}

// NumLevels returns the MIP chain length.
func (t *Texture) NumLevels() int { return len(t.Levels) }

// SizeBytes returns the total footprint of all levels.
func (t *Texture) SizeBytes() int {
	n := 0
	for _, s := range t.Levels {
		n += s.SizeBytes()
	}
	return n
}
