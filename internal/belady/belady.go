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
	"math/bits"

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
//
// The trace is walked backward, and the latest position seen of each
// block is kept in an open-addressed, linearly probed table of int32
// slots: a slot holds a position plus one, and 0 marks it empty. A
// slot's block is read back from the address column, so the table
// stores no keys, and rehashing it on growth reads the same column. Its
// slot count starts at the first power of two at least the trace's
// length and doubles whenever more than half its slots are taken, which
// only a trace of mostly distinct blocks reaches. It panics on a trace of
// math.MaxInt32 records or more, whose positions do not fit a slot.
func NextUseTrace(t *stream.Trace, blockShift uint) []int64 {
	addrs, _ := t.Records()
	n := len(addrs)
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("belady: a trace of %d records is too long for int32 next-use slots", n))
	}
	out := make([]int64, n)
	shift := uint(64 - bits.Len(uint(max(n, 2)-1)))
	slots := make([]int32, 1<<(64-shift))
	used := 0
	for i := n - 1; i >= 0; i-- {
		bn := addrs[i] >> blockShift
		h := int(bn * fibonacci >> shift)
		for slots[h] != 0 && addrs[slots[h]-1]>>blockShift != bn {
			h = (h + 1) & (len(slots) - 1)
		}
		out[i] = Never
		if s := slots[h]; s != 0 {
			out[i] = int64(s - 1)
		} else {
			used++
		}
		slots[h] = int32(i + 1)
		if 2*used > len(slots) {
			shift--
			slots = rehash(slots, addrs, blockShift, shift)
		}
	}
	return out
}

// fibonacci is 2^64 divided by the golden ratio; a block's home slot is
// the top bits of the block number times it.
const fibonacci = 0x9e3779b97f4a7c15

// rehash returns a table of 1<<(64-shift) slots holding every position
// of slots, each at the first free slot from its block's home.
func rehash(slots []int32, addrs []uint64, blockShift, shift uint) []int32 {
	grown := make([]int32, 1<<(64-shift))
	mask := len(grown) - 1
	for _, s := range slots {
		if s == 0 {
			continue
		}
		h := int((addrs[s-1] >> blockShift) * fibonacci >> shift)
		for grown[h] != 0 {
			h = (h + 1) & mask
		}
		grown[h] = s
	}
	return grown
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
