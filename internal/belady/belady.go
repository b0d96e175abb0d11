// Package belady implements Belady's optimal replacement policy (MIN) for
// offline trace analysis, as used throughout Section 2 of the paper to
// bound the achievable LLC hit rates. The policy requires the full access
// trace up front: NextUseTrace precomputes, for every trace position, the
// position of the next access to the same cache block, and OPT victimizes
// the resident block whose next use lies farthest in the future.
package belady

import (
	"fmt"
	"math"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// Never marks a block that is not referenced again in the trace.
const Never = int64(math.MaxInt64)

// NextUseTrace computes the forward reuse chain of a packed trace:
// out[i] is the position of the next access to the same block as record
// i, or Never. Blocks are formed by shifting addresses right by
// blockShift bits. Only the address column is read; positions are the
// sequence numbers by construction.
func NextUseTrace(t *stream.Trace, blockShift uint) []int64 {
	n := t.Len()
	out := make([]int64, n)
	last := make(map[uint64]int64, n/4+1)
	for i := n - 1; i >= 0; i-- {
		bn := t.Addr(i) >> blockShift
		if j, ok := last[bn]; ok {
			out[i] = j
		} else {
			out[i] = Never
		}
		last[bn] = int64(i)
	}
	return out
}

// OPT is Belady's optimal policy. Each access presented to the cache must
// carry its trace position in Access.Seq, as cachesim.ReplaySource sets
// it, and the policy must have been constructed from the NextUseTrace
// chain of the exact trace being replayed.
//
// When Bypass is true (the default used in the paper reproduction), an
// incoming block whose next use is farther than every resident block's is
// not cached at all, which is the true optimal for a cache allowed to
// bypass; with Bypass false the policy degrades to forced-fill MIN.
type OPT struct {
	ways    int
	nextUse []int64 // by trace position
	due     []int64 // by (set, way): next use of resident block
	Bypass  bool
}

var _ cachesim.Policy = (*OPT)(nil)

// NewOPT returns an optimal policy for a trace whose forward reuse chain
// is next (from NextUseTrace).
func NewOPT(next []int64) *OPT {
	return &OPT{nextUse: next, Bypass: true}
}

// Name implements cachesim.Policy.
func (p *OPT) Name() string { return "Belady" }

// Reset implements cachesim.Policy.
func (p *OPT) Reset(sets, ways int) {
	p.ways = ways
	p.due = make([]int64, sets*ways)
	for i := range p.due {
		p.due[i] = Never
	}
}

func (p *OPT) lookahead(a stream.Access) int64 {
	if a.Seq < 0 || a.Seq >= int64(len(p.nextUse)) {
		panic(fmt.Sprintf("belady: access seq %d outside prepared trace of %d", a.Seq, len(p.nextUse)))
	}
	return p.nextUse[a.Seq]
}

// Hit implements cachesim.Policy.
func (p *OPT) Hit(set, way int, a stream.Access) {
	p.due[set*p.ways+way] = p.lookahead(a)
}

// Fill implements cachesim.Policy.
func (p *OPT) Fill(set, way int, a stream.Access) {
	p.due[set*p.ways+way] = p.lookahead(a)
}

// Victim implements cachesim.Policy.
func (p *OPT) Victim(set int, a stream.Access) int {
	base := set * p.ways
	victim, farthest := 0, int64(-1)
	for w := 0; w < p.ways; w++ {
		if d := p.due[base+w]; d > farthest {
			victim, farthest = w, d
		}
	}
	if p.Bypass && p.lookahead(a) >= farthest {
		return -1
	}
	return victim
}
