package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// Random victimizes a pseudo-random way. It is not evaluated in the paper
// but serves as a sanity baseline in tests and ablations: any learned
// policy should beat it on workloads with reuse. The generator is a
// deterministic xorshift so runs are reproducible.
type Random struct {
	ways int
	s    uint64
	seed uint64
}

var _ cachesim.Policy = (*Random)(nil)

// NewRandom returns a random-replacement policy with the given seed.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{seed: seed}
}

// Name implements cachesim.Policy.
func (p *Random) Name() string { return "Random" }

// Reset implements cachesim.Policy.
func (p *Random) Reset(sets, ways int) {
	p.ways = ways
	p.s = p.seed
}

// Hit implements cachesim.Policy.
func (p *Random) Hit(set, way int, a stream.Access) {}

// Fill implements cachesim.Policy.
func (p *Random) Fill(set, way int, a stream.Access) {}

// Victim implements cachesim.Policy.
func (p *Random) Victim(set int, a stream.Access) int {
	p.s ^= p.s << 13
	p.s ^= p.s >> 7
	p.s ^= p.s << 17
	return int(p.s % uint64(p.ways))
}
