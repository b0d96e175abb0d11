package cachesim

import (
	"math"
	"math/bits"
)

// fastmod reduces a 64-bit value modulo a fixed divisor d without a
// division: Lemire's direct remainder computation (Lemire, Kaser and
// Kurz, "Faster remainder by direct computation", 2019) with the
// 128-bit reciprocal M = ⌈2^128/d⌉. With 128 fraction bits the result
// is exact for every 64-bit numerator and every divisor d ≥ 1: for
// d = 1, M = 2^128 wraps to zero and every remainder comes out 0.
type fastmod struct {
	mhi, mlo uint64 // M mod 2^128
	d        uint64
}

func newFastmod(d uint64) fastmod {
	// ⌈2^128/d⌉ = ⌊(2^128-1)/d⌋ + 1, the quotient taken 64 bits at a time.
	qhi, r := bits.Div64(0, math.MaxUint64, d)
	qlo, _ := bits.Div64(r, math.MaxUint64, d)
	mlo, carry := bits.Add64(qlo, 1, 0)
	return fastmod{mhi: qhi + carry, mlo: mlo, d: d}
}

// mod returns x % d.
func (f fastmod) mod(x uint64) uint64 {
	// The fractional part of x/d: low 128 bits of M·x.
	fhi, flo := bits.Mul64(f.mlo, x)
	fhi += f.mhi * x
	// The remainder: the fraction times d, shifted right 128 bits.
	carry, _ := bits.Mul64(flo, f.d)
	hi, mid := bits.Mul64(fhi, f.d)
	_, c := bits.Add64(mid, carry, 0)
	return hi + c
}
