package memmap

import (
	"testing"
	"testing/quick"
)

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(100) // unaligned base
	p1 := a.Alloc(10)
	if p1%BlockSize != 0 {
		t.Errorf("allocation not block aligned: %#x", p1)
	}
	p2 := a.Alloc(64)
	if p2%BlockSize != 0 {
		t.Errorf("second allocation not aligned: %#x", p2)
	}
	if p2 < p1+10 {
		t.Errorf("allocations overlap: %#x after %#x+10", p2, p1)
	}
}

func TestAllocatorNonOverlap(t *testing.T) {
	a := NewAllocator(0x1000)
	type rng struct{ lo, hi uint64 }
	var got []rng
	sizes := []uint64{64, 100, 4096, 1, 65, 127}
	for _, sz := range sizes {
		base := a.Alloc(sz)
		for _, r := range got {
			if base < r.hi && base+sz > r.lo {
				t.Fatalf("allocation [%#x,%#x) overlaps [%#x,%#x)", base, base+sz, r.lo, r.hi)
			}
		}
		got = append(got, rng{base, base + sz})
	}
}

func TestTileShapes(t *testing.T) {
	cases := []struct{ bpp, w, h int }{
		{1, 8, 8}, {2, 8, 4}, {4, 4, 4}, {8, 4, 2}, {16, 2, 2},
	}
	for _, c := range cases {
		w, h := tileShape(c.bpp)
		if w != c.w || h != c.h {
			t.Errorf("tileShape(%d) = %dx%d, want %dx%d", c.bpp, w, h, c.w, c.h)
		}
		if w*h*c.bpp != BlockSize {
			t.Errorf("tileShape(%d): tile does not fill a block", c.bpp)
		}
	}
}

func TestTileShapePanicsOnBadBPP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unsupported bpp")
		}
	}()
	tileShape(3)
}

func TestSurfaceAddrWithinAllocation(t *testing.T) {
	a := NewAllocator(0)
	s := NewSurface(a, 100, 60, 4) // non-multiple of tile dims
	lo, hi := s.Base, s.Base+uint64(s.SizeBytes())
	for y := -5; y < 70; y += 3 {
		for x := -5; x < 110; x += 3 {
			addr := s.Addr(x, y)
			if addr < lo || addr >= hi {
				t.Fatalf("Addr(%d,%d) = %#x outside [%#x,%#x)", x, y, addr, lo, hi)
			}
		}
	}
}

func TestSurfaceDistinctTilesDistinctBlocks(t *testing.T) {
	a := NewAllocator(0)
	s := NewSurface(a, 64, 64, 4) // 16x16 tiles
	seen := map[uint64]bool{}
	for ty := 0; ty < s.TilesPerCol(); ty++ {
		for tx := 0; tx < s.TilesPerRow(); tx++ {
			b := s.TileAddr(tx, ty)
			if b%BlockSize != 0 {
				t.Fatalf("tile address %#x not block aligned", b)
			}
			if seen[b] {
				t.Fatalf("tile (%d,%d) reuses block %#x", tx, ty, b)
			}
			seen[b] = true
		}
	}
	if len(seen) != 16*16 {
		t.Errorf("expected 256 distinct tiles, got %d", len(seen))
	}
}

func TestPixelsInSameTileShareBlock(t *testing.T) {
	a := NewAllocator(0)
	s := NewSurface(a, 64, 64, 4)
	base := s.Addr(4, 4) / BlockSize
	for y := 4; y < 8; y++ {
		for x := 4; x < 8; x++ {
			if s.Addr(x, y)/BlockSize != base {
				t.Errorf("pixel (%d,%d) left its 4x4 tile block", x, y)
			}
		}
	}
	if s.Addr(8, 4)/BlockSize == base {
		t.Error("pixel (8,4) should be in the next tile")
	}
}

func TestSurfaceContains(t *testing.T) {
	a := NewAllocator(0x4000)
	s := NewSurface(a, 32, 32, 4)
	if !s.Contains(s.Base) || !s.Contains(s.Base+uint64(s.SizeBytes())-1) {
		t.Error("surface does not contain its own range")
	}
	if s.Contains(s.Base-1) || s.Contains(s.Base+uint64(s.SizeBytes())) {
		t.Error("surface contains addresses outside its range")
	}
}

func TestNewSurfacePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero-size surface")
		}
	}()
	NewSurface(NewAllocator(0), 0, 10, 4)
}

func TestBuffer(t *testing.T) {
	a := NewAllocator(0)
	b := NewBuffer(a, 10, 32)
	if b.Count() != 10 {
		t.Errorf("Count = %d", b.Count())
	}
	if b.ElemAddr(3) != b.Base+96 {
		t.Errorf("ElemAddr(3) = %#x", b.ElemAddr(3))
	}
	// Clamping.
	if b.ElemAddr(-1) != b.Base {
		t.Error("negative index not clamped to base")
	}
	if b.ElemAddr(100) != b.Base+uint64(9*32) {
		t.Error("overflow index not clamped to last element")
	}
}

func TestTextureMIPChain(t *testing.T) {
	a := NewAllocator(0)
	tx := NewTexture(a, 256, 256, 4, 8)
	if tx.NumLevels() != 8 {
		t.Fatalf("NumLevels = %d, want 8", tx.NumLevels())
	}
	for i := 0; i < tx.NumLevels(); i++ {
		want := 256 >> uint(i)
		if want < 1 {
			want = 1
		}
		if tx.Levels[i].Width != want {
			t.Errorf("level %d width = %d, want %d", i, tx.Levels[i].Width, want)
		}
	}
	if tx.Dynamic {
		t.Error("static texture marked dynamic")
	}
}

func TestTextureChainStopsAtOne(t *testing.T) {
	a := NewAllocator(0)
	tx := NewTexture(a, 4, 4, 4, 16)
	if n := tx.NumLevels(); n != 3 { // 4, 2, 1
		t.Errorf("NumLevels = %d, want 3", n)
	}
	last := tx.Levels[tx.NumLevels()-1]
	if last.Width != 1 || last.Height != 1 {
		t.Errorf("last level %dx%d", last.Width, last.Height)
	}
}

func TestTextureLevelClamped(t *testing.T) {
	a := NewAllocator(0)
	tx := NewTexture(a, 64, 64, 4, 3)
	if tx.Level(10) != tx.Levels[2] {
		t.Error("Level beyond chain not clamped")
	}
	if tx.Level(-1) != tx.Levels[0] {
		t.Error("negative level not clamped")
	}
}

func TestTextureFromSurface(t *testing.T) {
	a := NewAllocator(0)
	s := NewSurface(a, 128, 64, 4)
	tx := TextureFromSurface(s)
	if !tx.Dynamic {
		t.Error("render-target texture must be dynamic")
	}
	if tx.NumLevels() != 1 || tx.Level(0) != s {
		t.Error("dynamic texture must alias the surface")
	}
}

func TestTextureSizeBytes(t *testing.T) {
	a := NewAllocator(0)
	tx := NewTexture(a, 64, 64, 4, 2)
	want := tx.Levels[0].SizeBytes() + tx.Levels[1].SizeBytes()
	if tx.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", tx.SizeBytes(), want)
	}
}

// refAddr is the division-and-modulo addressing formula Surface.Addr
// computes with shifts and masks: clamp, split each coordinate into a
// tile and an in-tile position, then order the tiles by the layout.
func refAddr(s *Surface, x, y int) uint64 {
	tw, th := tileShape(s.BytesPerPixel)
	x = min(max(x, 0), s.Width-1)
	y = min(max(y, 0), s.Height-1)
	tile := (y/th)*s.TilesPerRow() + x/tw
	if s.LayoutKind() == LayoutMorton {
		tile = mortonIndex(x/tw, y/th)
	}
	off := ((y%th)*tw + x%tw) * s.BytesPerPixel
	return s.Base + uint64(tile*BlockSize+off)
}

// Property: for every pixel size and both layouts, on arbitrary surface
// shapes and coordinates — including ones past either edge, which
// clamp — Addr matches refAddr and lands inside the surface allocation.
func TestSurfaceAddrProperty(t *testing.T) {
	f := func(w8, h8, bppSel uint8, morton bool, xs, ys []int16) bool {
		w, h := int(w8%200)+1, int(h8%200)+1
		bpp := 1 << (bppSel % 5)
		layout := LayoutRowMajor
		if morton {
			layout = LayoutMorton
		}
		s := NewSurfaceLayout(NewAllocator(0x100000), w, h, bpp, layout)
		coords := func(raw []int16, n int) []int {
			cs := []int{-1 << 40, -1, 0, n - 1, n, 1 << 40}
			for _, v := range raw {
				cs = append(cs, int(v))
			}
			return cs
		}
		for _, x := range coords(xs, w) {
			for _, y := range coords(ys, h) {
				addr := s.Addr(x, y)
				if addr != refAddr(s, x, y) || !s.Contains(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: distinct in-bounds pixels within the same surface never map
// to overlapping byte ranges (addresses differ for distinct pixels).
func TestSurfacePixelAddrUniqueProperty(t *testing.T) {
	f := func(seed uint8) bool {
		w := int(seed%40) + 8
		h := int(seed/8%40) + 8
		a := NewAllocator(0)
		s := NewSurface(a, w, h, 4)
		seen := map[uint64][2]int{}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				addr := s.Addr(x, y)
				if prev, ok := seen[addr]; ok {
					_ = prev
					return false
				}
				seen[addr] = [2]int{x, y}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
