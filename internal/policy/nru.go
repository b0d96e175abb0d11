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
	ref  []bool
}

var _ cachesim.Policy = (*NRU)(nil)

// NewNRU returns a not-recently-used policy.
func NewNRU() *NRU { return &NRU{} }

// Name implements cachesim.Policy.
func (p *NRU) Name() string { return "NRU" }

// Reset implements cachesim.Policy.
func (p *NRU) Reset(sets, ways int) {
	p.ways = ways
	p.ref = make([]bool, sets*ways)
}

// Hit implements cachesim.Policy.
func (p *NRU) Hit(set, way int, a stream.Access) { p.mark(set, way) }

// Fill implements cachesim.Policy.
func (p *NRU) Fill(set, way int, a stream.Access) { p.mark(set, way) }

// Victim implements cachesim.Policy.
func (p *NRU) Victim(set int, a stream.Access) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			return w
		}
	}
	// Every bit is set only in a one-way set, where mark leaves the lone
	// bit set: clear them all and evict way 0.
	for w := 0; w < p.ways; w++ {
		p.ref[base+w] = false
	}
	return 0
}

func (p *NRU) mark(set, way int) {
	base := set * p.ways
	p.ref[base+way] = true
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			return
		}
	}
	for w := 0; w < p.ways; w++ {
		if w != way {
			p.ref[base+w] = false
		}
	}
}
