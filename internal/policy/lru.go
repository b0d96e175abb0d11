// Package policy implements the baseline LLC replacement policies the
// paper evaluates against: LRU, NRU, SRRIP, DRRIP, the graphics
// stream-aware GS-DRRIP, SHiP-mem, and a deterministic random policy;
// and, as extensions, DIP, pseudo-LIFO, counter-based dead-block
// prediction, UCP way-partitioning and a stream-trained Hawkeye. Each is
// a cachesim.Policy; the two that learn from the blocks they evict
// (SHiP-mem and CounterDBP) do so in Fill, from the state of the block
// it replaces. The paper's own proposals (GSPZTC, GSPZTC+TSE, GSPC) live
// in internal/core.
package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// LRU is the least-recently-used policy: blocks are stamped on every hit
// and fill, and the block with the oldest stamp is victimized. The paper
// uses it as the iso-overhead (4 state bits) comparison point in Fig. 14.
type LRU struct {
	ways  int
	clock uint64
	stamp []uint64
}

var _ cachesim.Policy = (*LRU)(nil)

// NewLRU returns a least-recently-used policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cachesim.Policy.
func (p *LRU) Name() string { return "LRU" }

// Reset implements cachesim.Policy.
func (p *LRU) Reset(sets, ways int) {
	p.ways = ways
	p.clock = 0
	p.stamp = make([]uint64, sets*ways)
}

// Hit implements cachesim.Policy.
func (p *LRU) Hit(set, way int, a stream.Access) { p.touch(set, way) }

// Fill implements cachesim.Policy.
func (p *LRU) Fill(set, way int, a stream.Access) { p.touch(set, way) }

// Victim implements cachesim.Policy.
func (p *LRU) Victim(set int, a stream.Access) int {
	base := set * p.ways
	victim, oldest := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < oldest {
			victim, oldest = w, s
		}
	}
	return victim
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// StackPosition returns the recency rank of (set, way): 0 is MRU. It is
// exported for tests of the LRU stack property.
func (p *LRU) StackPosition(set, way int) int {
	base := set * p.ways
	mine := p.stamp[base+way]
	rank := 0
	for w := 0; w < p.ways; w++ {
		if p.stamp[base+w] > mine {
			rank++
		}
	}
	return rank
}
