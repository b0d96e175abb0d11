package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// CounterDBP is a counter-based dead block predictor in the spirit of
// Kharbutli and Solihin [25] (Section 1.1.1), adapted to graphics
// streams: instead of program counters (unavailable for fixed-function
// units), it learns the typical access count of blocks per stream kind.
// Each block counts its accesses; on eviction, the per-stream threshold
// learns the block's final count. A block whose count exceeds its
// stream's learned threshold is predicted dead and victimized first.
type CounterDBP struct {
	// LRU breaks ties among equally (un)dead blocks.
	LRU
	// cnt is the per-block access count since fill.
	cnt []uint8
	// kind remembers the filling stream of each block.
	kind []uint8
	// avgX4 is the exponentially averaged final access count per stream,
	// fixed-point with 2 fraction bits.
	avgX4 [stream.NumKinds]int
}

var _ cachesim.Policy = (*CounterDBP)(nil)

// NewCounterDBP returns a counter-based dead block predictor.
func NewCounterDBP() *CounterDBP { return &CounterDBP{} }

// Name implements cachesim.Policy.
func (p *CounterDBP) Name() string { return "CounterDBP" }

// Reset implements cachesim.Policy.
func (p *CounterDBP) Reset(sets, ways int) {
	p.LRU.Reset(sets, ways)
	n := sets * ways
	p.cnt = make([]uint8, n)
	p.kind = make([]uint8, n)
	for k := range p.avgX4 {
		p.avgX4[k] = 4 // one access on average, optimistic start
	}
}

// Hit implements cachesim.Policy.
func (p *CounterDBP) Hit(set, way int, a stream.Access) {
	if i := set*p.ways + way; p.cnt[i] < 255 {
		p.cnt[i]++
	}
	p.touch(set, way)
}

// Fill implements cachesim.Policy. The block it replaces, if any (a way
// never filled still has stamp 0), teaches its stream's average its
// final access count (alpha = 1/8).
func (p *CounterDBP) Fill(set, way int, a stream.Access) {
	i := set*p.ways + way
	if p.stamp[i] != 0 {
		k := p.kind[i]
		p.avgX4[k] += (int(p.cnt[i])*4 - p.avgX4[k]) / 8
		if p.avgX4[k] < 4 {
			p.avgX4[k] = 4
		}
	}
	p.cnt[i] = 1
	p.kind[i] = uint8(a.Kind)
	p.touch(set, way)
}

// dead reports whether the block's access count has reached its stream's
// learned lifetime (it is unlikely to be touched again).
func (p *CounterDBP) dead(i int) bool {
	return int(p.cnt[i])*4 >= p.avgX4[p.kind[i]]
}

// Victim implements cachesim.Policy: prefer the least recently used
// predicted-dead block; if none is dead, plain LRU.
func (p *CounterDBP) Victim(set int, a stream.Access) int {
	base := set * p.ways
	victim, oldest := -1, uint64(1<<63)
	for w := 0; w < p.ways; w++ {
		if p.dead(base+w) && p.stamp[base+w] < oldest {
			victim, oldest = w, p.stamp[base+w]
		}
	}
	if victim >= 0 {
		return victim
	}
	return p.LRU.Victim(set, a)
}

// LearnedLifetime exposes the learned per-stream access count (in
// accesses) for tests.
func (p *CounterDBP) LearnedLifetime(k stream.Kind) float64 {
	return float64(p.avgX4[k]) / 4
}
