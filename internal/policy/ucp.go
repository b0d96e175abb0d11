package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// UCP is utility-based cache partitioning (Qureshi and Patt [41],
// Section 1.1.1 of the paper) applied to the four graphics stream groups
// the way TAP [28] applies it to CPU/GPU threads. UMON-style shadow tags
// in sampled sets record each group's marginal hit utility per way; a
// periodic lookahead pass re-partitions the ways; the replacement victim
// is the LRU block of the group most over its allocation, whichever
// group the filling access belongs to, or the set's LRU block when no
// group is over. (Qureshi and Patt's rule differs: a requester at or over
// its allocation evicts its own LRU block.)
//
// The paper argues (Section 1.1.2) that explicit partitioning cannot
// serve 3D rendering because the streams share data (render target
// production feeds texture consumption); this implementation exists to
// demonstrate exactly that effect in the ext-ucp experiment.
type UCP struct {
	// LRU keeps the main array's recency.
	LRU
	// group is each block's stream group.
	group []uint8

	// UMON: for each sampled set and group, a shadow LRU stack of block
	// numbers; way-position hit counters accumulate marginal utility.
	shadow map[int]*[NumStreamGroups][]uint64
	hits   [NumStreamGroups][]int64 // per way position
	access int64
	alloc  [NumStreamGroups]int
}

var _ cachesim.Policy = (*UCP)(nil)

// ucpSampleEvery selects one UMON set per this many sets.
const ucpSampleEvery = 32

// ucpRepartitionPeriod is how many accesses between lookahead passes.
const ucpRepartitionPeriod = 1 << 14

// NewUCP returns a utility-based partitioning policy over the graphics
// stream groups.
func NewUCP() *UCP { return &UCP{} }

// Name implements cachesim.Policy.
func (p *UCP) Name() string { return "UCP" }

// Reset implements cachesim.Policy.
func (p *UCP) Reset(sets, ways int) {
	p.LRU.Reset(sets, ways)
	p.group = make([]uint8, sets*ways)
	p.shadow = make(map[int]*[NumStreamGroups][]uint64)
	for g := range p.hits {
		p.hits[g] = make([]int64, ways)
	}
	p.access = 0
	// Start with an even split, remainder to the render target group
	// (the heaviest stream).
	base := ways / int(NumStreamGroups)
	rem := ways - base*int(NumStreamGroups)
	for g := range p.alloc {
		p.alloc[g] = base
	}
	p.alloc[GroupRT] += rem
}

// Allocation exposes the current per-group way allocation for tests.
func (p *UCP) Allocation() [NumStreamGroups]int { return p.alloc }

func (p *UCP) isUMONSet(set int) bool { return set%ucpSampleEvery == 0 }

// umon updates the shadow stack of the access's group and records the
// way-position utility.
func (p *UCP) umon(set int, a stream.Access) {
	st := p.shadow[set]
	if st == nil {
		st = &[NumStreamGroups][]uint64{}
		p.shadow[set] = st
	}
	g := GroupOf(a.Kind)
	bn := a.Addr >> 6
	stack := st[g]
	for i, b := range stack {
		if b == bn {
			p.hits[g][i]++
			copy(stack[1:i+1], stack[:i])
			stack[0] = bn
			return
		}
	}
	if len(stack) < p.ways {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack)
	stack[0] = bn
	st[g] = stack
}

// repartition runs greedy lookahead: repeatedly grant the next way to
// the group with the highest remaining marginal utility, then halve the
// counters so the partition tracks phase changes.
func (p *UCP) repartition() {
	taken := [NumStreamGroups]int{}
	var next [NumStreamGroups]int
	for w := 0; w < p.ways; w++ {
		best, bestU := 0, int64(-1)
		for g := 0; g < int(NumStreamGroups); g++ {
			if next[g] >= p.ways {
				continue
			}
			if u := p.hits[g][next[g]]; u > bestU {
				best, bestU = g, u
			}
		}
		taken[best]++
		next[best]++
	}
	// Guarantee one way per group so no stream starves completely.
	for g := 0; g < int(NumStreamGroups); g++ {
		for taken[g] == 0 {
			donor, most := 0, 0
			for h := 0; h < int(NumStreamGroups); h++ {
				if taken[h] > most {
					donor, most = h, taken[h]
				}
			}
			taken[donor]--
			taken[g]++
		}
	}
	p.alloc = taken
	for g := range p.hits {
		for i := range p.hits[g] {
			p.hits[g][i] >>= 1
		}
	}
}

func (p *UCP) note(set int, a stream.Access) {
	p.access++
	if p.isUMONSet(set) {
		p.umon(set, a)
	}
	if p.access%ucpRepartitionPeriod == 0 {
		p.repartition()
	}
}

// Hit implements cachesim.Policy: a hit moves the block to MRU and into
// its access's group, as a fill does.
func (p *UCP) Hit(set, way int, a stream.Access) { p.Fill(set, way, a) }

// Fill implements cachesim.Policy.
func (p *UCP) Fill(set, way int, a stream.Access) {
	p.note(set, a)
	p.touch(set, way)
	p.group[set*p.ways+way] = uint8(GroupOf(a.Kind))
}

// Victim implements cachesim.Policy: evict the LRU block of the group
// most over its allocation (the first such group on a tie), or the set's
// LRU block when no group exceeds its share. The filling access never
// changes the choice: a group at or over its own share can evict
// another group's block.
func (p *UCP) Victim(set int, a stream.Access) int {
	base := set * p.ways
	var count [NumStreamGroups]int
	for w := 0; w < p.ways; w++ {
		count[p.group[base+w]]++
	}
	overG, overBy := -1, 0
	for g := 0; g < int(NumStreamGroups); g++ {
		if ov := count[g] - p.alloc[g]; ov > overBy {
			overG, overBy = g, ov
		}
	}
	if overG < 0 {
		return p.LRU.Victim(set, a)
	}
	// The over-allocated group holds at least one block of the set.
	victim, oldest := -1, uint64(1<<63)
	for w := 0; w < p.ways; w++ {
		if int(p.group[base+w]) == overG && p.stamp[base+w] < oldest {
			victim, oldest = w, p.stamp[base+w]
		}
	}
	return victim
}
