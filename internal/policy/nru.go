package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// NRU is the single-bit not-recently-used policy of Figure 1: every block
// carries one reference bit, set on fill and on hit; when setting a bit
// would leave every block in the set marked, all other bits are cleared.
// The victim is the lowest-numbered way whose bit is clear.
type NRU struct {
	ways int
	// ref holds each set's reference bits, one byte per way (1 set, 0
	// clear), in a row of width = cachesim.RowWidth(ways) bytes; the
	// bytes that pad a row to whole words stay 0.
	width int
	ref   []uint8
}

var _ cachesim.Policy = (*NRU)(nil)

// NewNRU returns a not-recently-used policy.
func NewNRU() *NRU { return &NRU{} }

// Name implements cachesim.Policy.
func (p *NRU) Name() string { return "NRU" }

// Reset implements cachesim.Policy.
func (p *NRU) Reset(sets, ways int) {
	p.ways, p.width = ways, cachesim.RowWidth(ways)
	p.ref = make([]uint8, sets*p.width)
}

// Hit implements cachesim.Policy.
func (p *NRU) Hit(set, way int, a stream.Access) { p.mark(set, way) }

// Fill implements cachesim.Policy.
func (p *NRU) Fill(set, way int, a stream.Access) { p.mark(set, way) }

// Victim implements cachesim.Policy.
func (p *NRU) Victim(set int, a stream.Access) int {
	row := p.row(set)
	if w := cachesim.FirstByte(row, 0); w < p.ways {
		return w
	}
	// Every bit is set only in a one-way set, where mark leaves the lone
	// bit set: clear them all and evict way 0.
	clear(row)
	return 0
}

// mark sets way's bit and, when that leaves no bit of the set clear
// (the first clear byte lies past the last way), clears all the others.
func (p *NRU) mark(set, way int) {
	row := p.row(set)
	row[way] = 1
	if cachesim.FirstByte(row, 0) >= p.ways {
		clear(row)
		row[way] = 1
	}
}

// row returns set's reference bytes.
func (p *NRU) row(set int) []uint8 { return p.ref[set*p.width : set*p.width+p.width] }
