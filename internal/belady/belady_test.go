package belady

import (
	"context"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

// mkTrace packs one access at address b·stride for each b in blocks.
func mkTrace(stride uint64, blocks ...uint64) *stream.Trace {
	tr := stream.NewTrace(len(blocks))
	for _, b := range blocks {
		tr.Append(stream.Access{Addr: b * stride})
	}
	return tr
}

// blocksOf widens testing/quick's block numbers for mkTrace.
func blocksOf(blocks []uint8, mod uint64) []uint64 {
	out := make([]uint64, len(blocks))
	for i, b := range blocks {
		out[i] = uint64(b) % mod
	}
	return out
}

func TestNextUseSimple(t *testing.T) {
	next := NextUseTrace(mkTrace(64, 1, 2, 1, 3, 2, 1), 6)
	want := []int64{2, 4, 5, Never, Never, Never}
	for i := range want {
		if next[i] != want[i] {
			t.Errorf("next[%d] = %d, want %d", i, next[i], want[i])
		}
	}
}

func TestNextUseSameBlockDifferentOffsets(t *testing.T) {
	tr := stream.Pack([]stream.Access{
		{Addr: 0},
		{Addr: 63}, // same block
		{Addr: 64}, // next block
		{Addr: 32}, // block 0 again
	})
	next := NextUseTrace(tr, 6)
	if next[0] != 1 || next[1] != 3 || next[2] != Never || next[3] != Never {
		t.Errorf("next = %v", next)
	}
}

// brute-force next-use for the property test.
func bruteNextUse(tr *stream.Trace, shift uint) []int64 {
	out := make([]int64, tr.Len())
	for i := range out {
		out[i] = Never
		for j := i + 1; j < tr.Len(); j++ {
			if tr.Addr(i)>>shift == tr.Addr(j)>>shift {
				out[i] = int64(j)
				break
			}
		}
	}
	return out
}

// TestNextUseProperty holds NextUseTrace to bruteNextUse on dense
// traces (32 blocks, several records each) and on sparse ones, whose
// blocks lie a large power of two apart from a random base. It also
// demands, on the sparse traces, that some block's probe ran past its
// home slot and wrapped around the end of the table.
func TestNextUseProperty(t *testing.T) {
	same := func(tr *stream.Trace) bool {
		return slices.Equal(NextUseTrace(tr, 6), bruteNextUse(tr, 6))
	}
	dense := func(blocks []uint8) bool { return same(mkTrace(8, blocksOf(blocks, 256)...)) }
	if err := quick.Check(dense, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	wrapped := 0
	sparse := func(blocks []uint8, base uint32, stride uint8) bool {
		bns := blocksOf(blocks, 64)
		for i := range bns {
			bns[i] = uint64(base) + bns[i]<<(20+stride%30)
		}
		tr := mkTrace(64, bns...)
		if probeWraps(bns) {
			wrapped++
		}
		return same(tr)
	}
	if err := quick.Check(sparse, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if wrapped == 0 {
		t.Error("no sparse trace made a probe wrap around the table")
	}
}

// probeWraps reports whether NextUseTrace, walking blocks backward in a
// table of the first power of two at least len(blocks) slots (which
// these traces, with at most 64 distinct blocks in 64 or more records
// or few enough records, may double), sends some block's probe past the
// table's last slot.
func probeWraps(blocks []uint64) bool {
	const fib = 0x9e3779b97f4a7c15 // NextUseTrace's hash multiplier
	n := len(blocks)
	size := 2
	for size < n {
		size *= 2
	}
	slots := map[int]uint64{}
	for i := n - 1; i >= 0; i-- {
		h := int(blocks[i] * fib >> (64 - bits.Len(uint(size-1))))
		for b, ok := slots[h]; ok && b != blocks[i]; b, ok = slots[h] {
			if h++; h == size {
				return true
			}
		}
		if _, ok := slots[h]; !ok && 2*(len(slots)+1) > size {
			return false // the table doubles; this model stops here
		}
		slots[h] = blocks[i]
	}
	return false
}

func runTrace(t *testing.T, tr *stream.Trace, p cachesim.Policy, ways int) int64 {
	t.Helper()
	c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * ways, Ways: ways, BlockSize: 64}, p)
	if err := cachesim.ReplaySource(context.Background(), c, tr, 0); err != nil {
		t.Fatal(err)
	}
	return c.Stats.Misses
}

func TestOPTKnownSequence(t *testing.T) {
	// 2-way cache, blocks: 1 2 3 1 2. OPT: on filling 3, evict 2 if 1 is
	// nearer... next uses: 1->3, 2->4, 3->never. Filling 3 with bypass
	// enabled: 3 is never reused, so OPT bypasses it entirely.
	tr := mkTrace(64, 1, 2, 3, 1, 2)
	misses := runTrace(t, tr, NewOPT(NextUseTrace(tr, 6)), 2)
	if misses != 3 {
		t.Errorf("OPT misses = %d, want 3 (fills 1,2; bypasses 3; hits 1,2)", misses)
	}
}

func TestOPTForcedFill(t *testing.T) {
	tr := mkTrace(64, 1, 2, 3, 1, 2)
	p := NewOPT(NextUseTrace(tr, 6))
	p.Bypass = false
	misses := runTrace(t, tr, p, 2)
	// Forced fill must evict one of {1,2} for 3; evicting the farther (2)
	// preserves the hit on 1: misses = 1,2,3,2 = 4.
	if misses != 4 {
		t.Errorf("forced-fill OPT misses = %d, want 4", misses)
	}
}

func TestOPTBeatsLRUOnLoop(t *testing.T) {
	// Cyclic access to ways+1 blocks is LRU's worst case; OPT keeps all
	// but one resident.
	var blocks []uint64
	for rep := 0; rep < 10; rep++ {
		for b := uint64(0); b < 5; b++ {
			blocks = append(blocks, b)
		}
	}
	tr := mkTrace(64, blocks...)
	lru := runTrace(t, tr, policy.NewLRU(), 4)
	opt := runTrace(t, tr, NewOPT(NextUseTrace(tr, 6)), 4)
	if lru != int64(tr.Len()) {
		t.Errorf("LRU on a 5-block loop in 4 ways should always miss, got %d/%d", lru, tr.Len())
	}
	if opt >= lru/2 {
		t.Errorf("OPT (%d) should dramatically beat LRU (%d)", opt, lru)
	}
}

// The defining property: OPT's miss count lower-bounds every on-line
// policy on the same trace and geometry.
func TestOPTOptimalityProperty(t *testing.T) {
	rivals := func() []cachesim.Policy {
		return []cachesim.Policy{
			policy.NewLRU(), policy.NewNRU(), policy.NewSRRIP(2),
			policy.NewDRRIP(2), policy.NewRandom(11),
		}
	}
	f := func(blocks []uint8) bool {
		if len(blocks) == 0 {
			return true
		}
		tr := mkTrace(64, blocksOf(blocks, 32)...)
		opt := runTrace(t, tr, NewOPT(NextUseTrace(tr, 6)), 4)
		for _, r := range rivals() {
			if opt > runTrace(t, tr, r, 4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Bypass-capable OPT never does worse than forced-fill OPT.
func TestOPTBypassNeverWorseProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		if len(blocks) == 0 {
			return true
		}
		tr := mkTrace(64, blocksOf(blocks, 16)...)
		next := NextUseTrace(tr, 6)
		withBypass := runTrace(t, tr, NewOPT(next), 4)
		forced := NewOPT(next)
		forced.Bypass = false
		return withBypass <= runTrace(t, tr, forced, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOPTPanicsOnUnpreparedSeq(t *testing.T) {
	p := NewOPT(NextUseTrace(mkTrace(64, 1, 2), 6))
	c := cachesim.New(cachesim.Geometry{SizeBytes: 128, Ways: 2, BlockSize: 64}, p)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range Seq")
		}
	}()
	c.Access(stream.Access{Addr: 0, Seq: 99})
}

func TestOPTName(t *testing.T) {
	if NewOPT(nil).Name() != "Belady" {
		t.Error("unexpected policy name")
	}
}
