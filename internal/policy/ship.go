package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// SHiP-mem parameters from Section 5.1 of the paper: the physical address
// space is divided into contiguous 16 KB regions; a 14-bit region
// identifier (address bits [27:14]) indexes a 16K-entry table of 3-bit
// saturating counters per LLC bank.
const (
	shipRegionShift = 14
	shipTableBits   = 14
	shipTableSize   = 1 << shipTableBits
	shipCounterMax  = 7
	// shipCounterInit biases new regions toward intermediate re-reference
	// (insert at RRPV max-1) until evidence of zero reuse accumulates.
	shipCounterInit = 1
)

// SHiPMem is memory-region signature-based hit prediction [50] as
// evaluated in the paper. Each block remembers its region signature and
// whether it has been reused; hits increment the region counter, dead
// evictions decrement it, and fills of regions whose counter is zero are
// inserted with a distant re-reference prediction.
type SHiPMem struct {
	RRIP
	banks   int
	bankOf  []int32   // per set, from BankOf in Reset
	shct    [][]uint8 // [bank][signature]
	sig     []uint16  // per block
	reused  []bool    // per block
	present []bool    // per block: filled under this policy
}

var _ cachesim.Policy = (*SHiPMem)(nil)

// NewSHiPMem returns a SHiP-mem policy with a 2-bit RRPV and the given
// number of LLC banks (the paper's LLC has 4 banks of 2 MB).
func NewSHiPMem(banks int) *SHiPMem {
	if banks < 1 {
		banks = 1
	}
	return &SHiPMem{RRIP: NewRRIP(2), banks: banks}
}

// Name implements cachesim.Policy.
func (p *SHiPMem) Name() string { return "SHiP-mem" }

// Reset implements cachesim.Policy.
func (p *SHiPMem) Reset(sets, ways int) {
	p.RRIP.Reset(sets, ways)
	p.bankOf = BankOf(sets, p.banks)
	p.shct = make([][]uint8, p.banks)
	for b := range p.shct {
		t := make([]uint8, shipTableSize)
		for i := range t {
			t[i] = shipCounterInit
		}
		p.shct[b] = t
	}
	n := sets * ways
	p.sig = make([]uint16, n)
	p.reused = make([]bool, n)
	p.present = make([]bool, n)
}

func signature(addr uint64) uint16 {
	return uint16((addr >> shipRegionShift) & (shipTableSize - 1))
}

// Hit implements cachesim.Policy.
func (p *SHiPMem) Hit(set, way int, a stream.Access) {
	p.RRIP.Hit(set, way, a)
	i := set*p.ways + way
	if p.present[i] {
		p.reused[i] = true
		t := p.shct[p.bankOf[set]]
		if t[p.sig[i]] < shipCounterMax {
			t[p.sig[i]]++
		}
	}
}

// Fill implements cachesim.Policy. A block it replaces that was never
// reused is a dead eviction, and its region's counter falls.
func (p *SHiPMem) Fill(set, way int, a stream.Access) {
	i := set*p.ways + way
	t := p.shct[p.bankOf[set]]
	if p.present[i] && !p.reused[i] && t[p.sig[i]] > 0 {
		t[p.sig[i]]--
	}
	sig := signature(a.Addr)
	p.sig[i] = sig
	p.reused[i] = false
	p.present[i] = true
	v := p.max - 1
	if t[sig] == 0 {
		v = p.max
	}
	p.SetRRPV(set, way, v)
}

// CounterFor exposes the learned counter for an address, for tests.
func (p *SHiPMem) CounterFor(set int, addr uint64) uint8 {
	return p.shct[p.bankOf[set]][signature(addr)]
}
