package rendercache

import (
	"testing"

	"gspc/internal/stream"
)

type capture struct {
	all []stream.Access
}

func (c *capture) Emit(a stream.Access) { c.all = append(c.all, a) }

func (c *capture) byKind(k stream.Kind) []stream.Access {
	var out []stream.Access
	for _, a := range c.all {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

func TestDefaultConfigSizes(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name string
		geom int
		ways int
	}{
		{"vertexindex", cfg.VertexIndex.SizeBytes, 16},
		{"vertex", cfg.Vertex.SizeBytes, 128},
		{"hiz", cfg.HiZ.SizeBytes, 24},
		{"stencil", cfg.Stencil.SizeBytes, 16},
		{"rt", cfg.RT.SizeBytes, 24},
		{"z", cfg.Z.SizeBytes, 32},
		{"texl3", cfg.TexL3.SizeBytes, 48},
	}
	wantSizes := []int{1 << 10, 16 << 10, 12 << 10, 16 << 10, 24 << 10, 32 << 10, 384 << 10}
	for i, c := range cases {
		if c.geom != wantSizes[i] {
			t.Errorf("%s size = %d, want %d", c.name, c.geom, wantSizes[i])
		}
	}
	if cfg.Vertex.Ways != 128 || cfg.TexL3.Ways != 48 || cfg.Z.Ways != 32 {
		t.Error("paper associativities not honored")
	}
}

func TestScaledFloorsAtOneSet(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.0001)
	for _, g := range []int{cfg.VertexIndex.Sets(), cfg.Vertex.Sets(), cfg.TexL3.Sets()} {
		if g < 1 {
			t.Error("scaled cache below one set")
		}
	}
	if err := cfg.TexL3.Validate(); err != nil {
		t.Errorf("scaled geometry invalid: %v", err)
	}
}

func TestScaledProportional(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.25)
	if cfg.TexL3.SizeBytes != 96<<10 {
		t.Errorf("texL3 at 1/4 = %d, want 96KB", cfg.TexL3.SizeBytes)
	}
}

func TestMissFetchReachesOutput(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(Z, 0x1000, false, 0, false)
	zs := out.byKind(stream.Z)
	if len(zs) != 1 || zs[0].Write {
		t.Fatalf("Z miss output = %+v", zs)
	}
	// Second access hits in the Z cache: no new LLC traffic.
	rc.Access(Z, 0x1000, true, 0, false)
	if len(out.byKind(stream.Z)) != 1 {
		t.Error("Z cache hit leaked to the LLC")
	}
}

func TestRTWriteValidateNoFetch(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(RT, 0x2000, true, 0, false)
	if n := len(out.byKind(stream.RT)); n != 0 {
		t.Errorf("RT write miss emitted %d accesses, want 0 (write validate)", n)
	}
	// A blending read miss does fetch.
	rc.Access(RT, 0x8000, false, 0, false)
	if n := len(out.byKind(stream.RT)); n != 1 {
		t.Errorf("RT read miss emitted %d accesses, want 1", n)
	}
}

func TestDirtyRTWritebackOnFlush(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(RT, 0x2000, true, 0, false)
	rc.Flush()
	rts := out.byKind(stream.RT)
	if len(rts) != 1 || !rts[0].Write || rts[0].Addr != 0x2000 {
		t.Fatalf("flush output = %+v", rts)
	}
}

func TestTextureHierarchyChains(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(Texture, 0x4000, false, 0, false)
	// One L1 miss -> L2 miss -> L3 miss -> one LLC texture access.
	if n := len(out.byKind(stream.Texture)); n != 1 {
		t.Fatalf("texture miss produced %d LLC accesses, want 1", n)
	}
	// Hit in L1 now.
	rc.Access(Texture, 0x4000, false, 0, false)
	if n := len(out.byKind(stream.Texture)); n != 1 {
		t.Error("texture hit leaked to the LLC")
	}
	st := rc.Stats()
	if st["texL1"].Hits != 1 || st["texL2"].Misses != 1 || st["texL3"].Misses != 1 {
		t.Errorf("hierarchy stats: L1 %+v L2 %+v L3 %+v", st["texL1"], st["texL2"], st["texL3"])
	}
}

func TestInvalidateTexturesDropsContentsKeepsStats(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(Texture, 0x4000, false, 0, false)
	before := rc.Stats()["texL1"]
	rc.InvalidateTextures()
	// Contents dropped: same address misses again.
	rc.Access(Texture, 0x4000, false, 0, false)
	if n := len(out.byKind(stream.Texture)); n != 2 {
		t.Errorf("post-invalidate access produced %d LLC accesses, want 2 total", n)
	}
	after := rc.Stats()["texL1"]
	if after.Accesses < before.Accesses {
		t.Error("invalidate lost cumulative statistics")
	}
}

func TestDisplayColorWritebacks(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	// Writes are validated locally (no fetch) and reach the LLC only as
	// display-tagged writebacks on flush.
	rc.Access(DisplayColor, 0x6000, true, 0, false)
	if len(out.byKind(stream.Display)) != 0 {
		t.Fatal("display write miss fetched through the LLC")
	}
	rc.Flush()
	ds := out.byKind(stream.Display)
	if len(ds) != 1 || !ds[0].Write || ds[0].Addr != 0x6000 {
		t.Fatalf("display writeback = %+v", ds)
	}
	// A blending read of the back buffer misses through to the LLC.
	rc.Access(DisplayColor, 0x9000, false, 0, false)
	ds = out.byKind(stream.Display)
	if len(ds) != 2 || ds[1].Write {
		t.Fatalf("display read = %+v", ds)
	}
}

func TestOtherGoesStraightThrough(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Other(0x7000)
	os := out.byKind(stream.Other)
	if len(os) != 1 || os[0].Write {
		t.Fatalf("other output = %+v", os)
	}
}

func TestVertexStreams(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(VertexIndex, 0x100, false, 0, false)
	rc.Access(Vertex, 0x9000, false, 0, false)
	vs := out.byKind(stream.Vertex)
	if len(vs) != 2 {
		t.Fatalf("vertex misses = %d, want 2", len(vs))
	}
	// Both caches hold their block now.
	rc.Access(VertexIndex, 0x100, false, 0, false)
	rc.Access(Vertex, 0x9000, false, 0, false)
	if len(out.byKind(stream.Vertex)) != 2 {
		t.Error("vertex cache hits leaked to the LLC")
	}
}

func TestHiZAndStencilRouting(t *testing.T) {
	out := &capture{}
	rc := New(DefaultConfig(), out)
	rc.Access(HiZ, 0xa000, false, 0, false)
	rc.Access(Stencil, 0xb000, true, 0, false)
	if len(out.byKind(stream.HiZ)) != 1 {
		t.Error("HiZ miss not forwarded")
	}
	// Stencil write miss fetches (no write-validate on stencil).
	if len(out.byKind(stream.Stencil)) != 1 {
		t.Error("stencil miss not forwarded")
	}
	rc.Flush()
	// The dirty stencil block writes back.
	var wb int
	for _, a := range out.byKind(stream.Stencil) {
		if a.Write {
			wb++
		}
	}
	if wb != 1 {
		t.Errorf("stencil writebacks = %d, want 1", wb)
	}
}
