package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// PeLIFO is a light-weight probabilistic escape LIFO policy in the
// spirit of Chaudhuri [5] (cited in Section 1.1.1): blocks are ranked by
// their fill order within the set, eviction prefers the top of the fill
// stack (the most recently filled non-escaped block), and blocks that
// demonstrate reuse "escape" a few stack positions. It approximates the
// pseudo-LIFO family without the program-counter machinery, which
// graphics streams do not have.
type PeLIFO struct {
	ways int
	// pos is the fill-stack position (0 = top / most recently filled).
	pos []uint8
	// escaped counts how many hits a block has enjoyed.
	escaped []uint8
}

var _ cachesim.Policy = (*PeLIFO)(nil)

// peLIFOEscapeDepth is how far down the fill stack a reused block sinks
// per hit (escaping the eviction zone near the top).
const peLIFOEscapeDepth = 4

// NewPeLIFO returns a probabilistic-escape LIFO policy.
func NewPeLIFO() *PeLIFO { return &PeLIFO{} }

// Name implements cachesim.Policy.
func (p *PeLIFO) Name() string { return "peLIFO" }

// Reset implements cachesim.Policy.
func (p *PeLIFO) Reset(sets, ways int) {
	p.ways = ways
	p.pos = make([]uint8, sets*ways)
	p.escaped = make([]uint8, sets*ways)
	for i := range p.pos {
		p.pos[i] = uint8(ways - 1) // everything starts at the bottom
	}
}

// Hit implements cachesim.Policy: the block escapes deeper into the
// stack, away from the LIFO eviction zone.
func (p *PeLIFO) Hit(set, way int, a stream.Access) {
	i := set*p.ways + way
	if p.escaped[i] < 255 {
		p.escaped[i]++
	}
	np := int(p.pos[i]) + peLIFOEscapeDepth
	if np > p.ways-1 {
		np = p.ways - 1
	}
	p.pos[i] = uint8(np)
}

// Fill implements cachesim.Policy: the new block lands on top of the
// fill stack; everything shallower sinks by one.
func (p *PeLIFO) Fill(set, way int, a stream.Access) {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if w == way {
			continue
		}
		if p.pos[base+w] < uint8(p.ways-1) {
			p.pos[base+w]++
		}
	}
	p.pos[base+way] = 0
	p.escaped[base+way] = 0
}

// Victim implements cachesim.Policy: evict the never-reused block
// nearest the top of the fill stack; if every block has escaped at least
// once, fall back to the top of the stack.
func (p *PeLIFO) Victim(set int, a stream.Access) int {
	base := set * p.ways
	victim, best := -1, 255
	for w := 0; w < p.ways; w++ {
		if p.escaped[base+w] == 0 && int(p.pos[base+w]) < best {
			victim, best = w, int(p.pos[base+w])
		}
	}
	if victim >= 0 {
		return victim
	}
	for w := 0; w < p.ways; w++ {
		if int(p.pos[base+w]) < best {
			victim, best = w, int(p.pos[base+w])
		}
	}
	return victim
}
