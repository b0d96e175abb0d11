package policy

import "testing"

// TestSHiPBankTableMatchesFormula pins the per-set bank SHiP-mem's
// Reset precomputes against the formula it replaces:
// min(set/(sets/banks), banks-1), with bank 0 when sets < banks. The
// small set counts are what cachesim.NewSampled hands a policy.
func TestSHiPBankTableMatchesFormula(t *testing.T) {
	for _, banks := range []int{1, 3, 4, 8, 64} {
		p := NewSHiPMem(banks)
		for _, sets := range []int{1, 3, 15, 16, 17, 63, 64, 65, 276, 1024} {
			p.Reset(sets, 4)
			for s := 0; s < sets; s++ {
				want := 0
				if per := sets / banks; per > 0 {
					want = min(s/per, banks-1)
				}
				if got := int(p.bankOf[s]); got != want {
					t.Errorf("banks=%d sets=%d: set %d in bank %d, want %d", banks, sets, s, got, want)
				}
			}
		}
	}
}
