package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// DIP is the dynamic insertion policy of Qureshi et al. [40] (Section
// 1.1.1 of the paper): a set duel between traditional LRU insertion (new
// blocks enter at MRU) and bimodal insertion (new blocks enter at LRU,
// except one in every bipEpsilon fills). Hits always promote to MRU and
// the LRU block is always the victim, as in LRU, which DIP extends. DIP
// predates RRIP and is included as an extension baseline.
type DIP struct {
	LRU
	psel duel
	bip  throttle
}

var _ cachesim.Policy = (*DIP)(nil)

// NewDIP returns a dynamic insertion policy.
func NewDIP() *DIP { return &DIP{} }

// Name implements cachesim.Policy.
func (p *DIP) Name() string { return "DIP" }

// Reset implements cachesim.Policy.
func (p *DIP) Reset(sets, ways int) {
	p.LRU.Reset(sets, ways)
	p.psel.reset()
	p.bip = 0
}

// dipLeader reuses the DRRIP constituency scheme: residue 0 leads for
// MRU insertion (classic LRU), residue 33 for bimodal insertion.
func dipLeader(set int) int { return drripLeader(set) }

// Fill implements cachesim.Policy.
func (p *DIP) Fill(set, way int, a stream.Access) {
	if p.psel.bimodal(dipLeader(set)) && !p.bip.near() {
		// LRU-position insertion: 0 is the oldest stamp.
		p.stamp[set*p.ways+way] = 0
		return
	}
	p.touch(set, way)
}

// PSEL exposes the duel selector for tests.
func (p *DIP) PSEL() int { return int(p.psel) }
