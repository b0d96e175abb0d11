package cachesim

import (
	"encoding/binary"
	"math/bits"
)

// Byte rows: the cache's way fingerprints and the policies' per-way
// replacement state (RRIP's RRPVs, NRU's reference bits) keep one byte
// per way, each set's bytes in a row of RowWidth(ways) bytes, and read a
// row eight ways per uint64 word (SWAR). The bytes past the set's last
// way pad the row to whole words.

// lanes holds 1 in every byte of a word; times a byte b, it repeats b in
// every byte.
const lanes = 0x0101010101010101

// highs holds the top bit of every byte of a word.
const highs = 0x8080808080808080

// RowWidth returns the width in bytes of a row of ways one-byte lanes:
// ways rounded up to a whole number of 8-byte words.
func RowWidth(ways int) int { return (ways + 7) &^ 7 }

// zeroBytes returns a word with the top bit set in every zero byte of x.
// The lowest marked byte is always zero, but a 0x01 byte directly above
// a zero one may be marked too (the borrow runs into it), so callers
// that act on any mark but the lowest confirm it.
func zeroBytes(x uint64) uint64 { return (x - lanes) &^ x & highs }

// FirstByte returns the index of the first byte of row that equals b,
// or len(row) when none does. The length of row must be a multiple of 8.
func FirstByte(row []uint8, b uint8) int {
	pat := lanes * uint64(b)
	for i := 0; i < len(row); i += 8 {
		if m := zeroBytes(binary.LittleEndian.Uint64(row[i:]) ^ pat); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	return len(row)
}

// IncrementBytes adds one to each of the first n bytes of row, a word at
// a time, and leaves the rest of the row as it is. None of the n bytes
// may be 255, and the length of row must be at least RowWidth(n).
func IncrementBytes(row []uint8, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(row[i:], binary.LittleEndian.Uint64(row[i:])+lanes)
	}
	if i < n {
		binary.LittleEndian.PutUint64(row[i:], binary.LittleEndian.Uint64(row[i:])+lanes>>(64-8*(n-i)))
	}
}
