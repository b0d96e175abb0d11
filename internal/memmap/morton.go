package memmap

// Layout selects how a surface's tiles are ordered in memory.
type Layout uint8

const (
	// LayoutRowMajor places tile rows consecutively (linear-tiled
	// surfaces; the default, and what display engines scan out).
	LayoutRowMajor Layout = iota
	// LayoutMorton interleaves the tile coordinate bits (Z-order),
	// giving 2D locality at every power-of-two granularity — the layout
	// GPUs use for depth and texture surfaces so that a screen-space
	// neighborhood maps to a compact memory neighborhood.
	LayoutMorton
)

// String names the layout.
func (l Layout) String() string {
	if l == LayoutMorton {
		return "morton"
	}
	return "rowmajor"
}

// mortonInterleave spreads the low 16 bits of v to even bit positions.
func mortonInterleave(v uint32) uint32 {
	v &= 0xffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// mortonIndex is the Z-order index of tile (tx, ty).
func mortonIndex(tx, ty int) int {
	return int(mortonInterleave(uint32(tx)) | mortonInterleave(uint32(ty))<<1)
}

// tileIndex returns the linear block index of tile (tx, ty) under the
// surface's layout. It fills the axis tables (Allocator.table); Addr
// and TileAddr read those.
func (s *Surface) tileIndex(tx, ty int) int {
	if s.layout == LayoutMorton {
		return mortonIndex(tx, ty)
	}
	return ty*s.tilesPerRow + tx
}

// footprintBlocks returns the number of address blocks the surface
// occupies, including Morton padding.
func (s *Surface) footprintBlocks() int {
	if s.layout == LayoutMorton {
		return s.mortonSide * s.mortonSide
	}
	return s.tilesPerRow * s.tilesPerCol
}

// LayoutKind returns the surface's tile layout.
func (s *Surface) LayoutKind() Layout { return s.layout }

// NewTextureLayout allocates a MIP chain whose levels use the given tile
// layout (GPUs keep texture levels in Morton order for 2D locality).
func NewTextureLayout(a *Allocator, w, h, bpp, maxLevels int, layout Layout) *Texture {
	t := &Texture{}
	for lvl := 0; lvl < maxLevels && w >= 1 && h >= 1; lvl++ {
		t.Levels = append(t.Levels, NewSurfaceLayout(a, w, h, bpp, layout))
		if w == 1 && h == 1 {
			break
		}
		w = max(1, w/2)
		h = max(1, h/2)
	}
	return t
}
