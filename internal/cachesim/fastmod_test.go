package cachesim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFastmodMatchesModulo checks the division-free set reduction
// against the % operator: for arbitrary 64-bit block numbers and set
// counts 1…2^20, and at the edges of the numerator range for the set
// counts the scaled LLCs and render caches use.
func TestFastmodMatchesModulo(t *testing.T) {
	f := func(x uint64, sets uint32) bool {
		d := uint64(sets%(1<<20)) + 1
		return NewFastmod(d).Mod(x) == x%d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	for _, d := range []uint64{1, 2, 3, 7, 64, 122, 276, 552, 8192, 1<<20 - 1, 1 << 20} {
		fm := NewFastmod(d)
		check := func(x uint64) bool { return fm.Mod(x) == x%d }
		for _, x := range []uint64{0, 1, d - 1, d, d + 1, math.MaxUint64, math.MaxUint64 - d, math.MaxUint64 / d * d, math.MaxUint64/d*d - 1} {
			if !check(x) {
				t.Errorf("sets %d: mod(%d) = %d, want %d", d, x, fm.Mod(x), x%d)
			}
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("sets %d: %v", d, err)
		}
	}
}
