package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// byteRow is a quick-generated row of 1 to 48 lanes padded with zero
// bytes to RowWidth, its bytes drawn from a few values so that equal
// bytes, zero bytes and 0x01 bytes above zero ones (the zero-byte
// test's false marks) all occur.
type byteRow struct {
	Row   []uint8
	Lanes int
}

// Generate implements quick.Generator.
func (byteRow) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(48)
	row := make([]uint8, RowWidth(n))
	vals := []uint8{0, 1, 2, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for i := range n {
		row[i] = vals[r.Intn(len(vals))]
	}
	return reflect.ValueOf(byteRow{row, n})
}

// TestFirstByte holds FirstByte to a byte-by-byte scan for every value
// the rows hold.
func TestFirstByte(t *testing.T) {
	f := func(br byteRow) bool {
		for _, b := range []uint8{0, 1, 2, 0x7f, 0x80, 0x81, 0xfe, 0xff} {
			want := len(br.Row)
			for i, v := range br.Row {
				if v == b {
					want = i
					break
				}
			}
			if FirstByte(br.Row, b) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestIncrementBytes holds IncrementBytes to a byte-by-byte add over the
// first n lanes of a row none of whose lanes is 255, and demands that
// the padding past them stays as it was.
func TestIncrementBytes(t *testing.T) {
	f := func(br byteRow, pad uint8) bool {
		want := make([]uint8, len(br.Row))
		for i := range br.Row {
			if i >= br.Lanes {
				br.Row[i] = pad
			} else if br.Row[i] == 255 {
				br.Row[i] = 254
			}
			want[i] = br.Row[i]
			if i < br.Lanes {
				want[i]++
			}
		}
		IncrementBytes(br.Row, br.Lanes)
		return string(br.Row) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintPool checks that the blocks sameHashTop gives
// TestAgainstReferenceModel share the cache's fingerprint, so that test
// does put distinct blocks with equal fingerprints in one set.
func TestFingerprintPool(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 100 {
		pool := sameHashTop(r, r.Intn(refSets), 2+r.Intn(80))
		for _, bn := range pool {
			if fingerprint(bn) != fingerprint(pool[0]) || bn%refSets != pool[0]%refSets {
				t.Fatalf("blocks %#x and %#x: fingerprints %#x and %#x, sets %d and %d",
					pool[0], bn, fingerprint(pool[0]), fingerprint(bn), pool[0]%refSets, bn%refSets)
			}
		}
	}
}
