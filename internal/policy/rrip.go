package policy

import (
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// bipEpsilon is the bimodal insertion ratio: one in every bipEpsilon
// bimodal fills is inserted nearer (RRPV max-1 for BRRIP, MRU for DIP's
// BIP) instead of farther. The value 32 follows Jaleel et al. [19]. The
// choice is made with a deterministic fill counter so runs are
// reproducible.
const bipEpsilon = 32

// pselBits sizes the set-dueling selector counters of DRRIP, GS-DRRIP
// and DIP.
const pselBits = 10

// RRIP is the state every re-reference interval prediction policy
// shares: an n-bit RRPV per block, hit promotion to zero (RRIP-HP) and
// the aging victim scan. SRRIP, DRRIP, GS-DRRIP, SHiP-mem, Hawkeye and
// the GSPC family (internal/core) embed it, so its Victim is the only
// RRIP aging loop; each policy chooses the RRPVs its fills install, and
// Hawkeye and the GSPC family also those of their hits.
type RRIP struct {
	bits int
	max  uint8
	ways int
	// width is the row width, cachesim.RowWidth(ways): rrpv holds each
	// set's RRPVs, one byte per way, in a row of width bytes, and the
	// bytes that pad a row to whole words stay 0.
	width int
	rrpv  []uint8
}

// NewRRIP returns RRIP state with an n-bit RRPV, for embedding; Reset
// sizes it.
func NewRRIP(bits int) RRIP {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("policy: rrip width %d out of range", bits))
	}
	return RRIP{bits: bits, max: uint8(1<<bits - 1)}
}

// Reset implements cachesim.Policy: every block starts at the distant
// RRPV.
func (r *RRIP) Reset(sets, ways int) {
	r.ways, r.width = ways, cachesim.RowWidth(ways)
	r.rrpv = make([]uint8, sets*r.width)
	for s := range sets {
		row := r.rrpv[s*r.width:]
		for w := range ways {
			row[w] = r.max
		}
	}
}

// Hit implements cachesim.Policy: hit promotion (RRIP-HP) sets the RRPV
// to zero.
func (r *RRIP) Hit(set, way int, _ stream.Access) { r.rrpv[set*r.width+way] = 0 }

// Victim implements cachesim.Policy: it finds a block with RRPV == max,
// aging the whole set in unit steps until one exists. Ties break toward
// the minimum physical way id, as in the paper. Both the search and the
// aging take eight ways per word. The padding bytes stay 0, below max,
// so the first byte at max is one of the set's ways; and aging never
// carries out of a byte, since it runs only when no way is at max and
// no RRPV is ever above it.
func (r *RRIP) Victim(set int, _ stream.Access) int {
	row := r.rrpv[set*r.width : set*r.width+r.width]
	for {
		if w := cachesim.FirstByte(row, r.max); w < len(row) {
			return w
		}
		cachesim.IncrementBytes(row, r.ways)
	}
}

// SetRRPV installs the re-reference prediction value of a block.
func (r *RRIP) SetRRPV(set, way int, v uint8) { r.rrpv[set*r.width+way] = v }

// RRPV exposes the current re-reference prediction value of a block, for
// tests and analysis observers.
func (r *RRIP) RRPV(set, way int) uint8 { return r.rrpv[set*r.width+way] }

// MaxRRPV returns 2^n - 1 for the configured width.
func (r *RRIP) MaxRRPV() uint8 { return r.max }

// SRRIP is static re-reference interval prediction: every fill is
// inserted with RRPV 2^n-2 (long), hits promote to 0, and blocks with
// RRPV 2^n-1 are victimized. The LLC sample sets of the GSPC family run
// exactly this policy.
type SRRIP struct {
	RRIP
}

var _ cachesim.Policy = (*SRRIP)(nil)

// NewSRRIP returns an SRRIP policy with an n-bit RRPV (the paper uses 2).
func NewSRRIP(bits int) *SRRIP { return &SRRIP{NewRRIP(bits)} }

// Name implements cachesim.Policy.
func (p *SRRIP) Name() string { return fmt.Sprintf("SRRIP-%d", p.bits) }

// Fill implements cachesim.Policy.
func (p *SRRIP) Fill(set, way int, a stream.Access) { p.SetRRPV(set, way, p.max-1) }

// The teams of a set duel. A leader set of either team always inserts
// as its team does and moves the selector on each miss; a follower set
// inserts as the team the selector favours.
const (
	leaderNone = iota
	leaderSRRIP
	leaderBRRIP
)

// duel is a set-dueling selector (Qureshi et al. [40]): a saturating
// pselBits-bit counter that misses in leaderSRRIP sets raise and misses
// in leaderBRRIP sets lower. DRRIP runs one, GS-DRRIP one per stream
// group, and DIP one between MRU and bimodal insertion.
type duel int

func (d *duel) reset() { *d = 1<<(pselBits-1) - 1 }

// bimodal records a miss in a set of the given team and reports whether
// the fill takes the bimodal team's insertion: the set's own team for a
// leader, the selector's favourite for a follower.
func (d *duel) bimodal(team int) bool {
	switch team {
	case leaderSRRIP:
		if *d < 1<<pselBits-1 {
			*d++
		}
		return false
	case leaderBRRIP:
		if *d > 0 {
			*d--
		}
		return true
	default:
		return *d >= 1<<(pselBits-1)
	}
}

// throttle is the bimodal insertion counter: it counts the fills that
// take bimodal insertion, and every bipEpsilon-th of them is inserted
// nearer.
type throttle uint64

// near counts a bimodal fill and reports whether it is the one in
// bipEpsilon inserted nearer.
func (t *throttle) near() bool {
	*t++
	return *t%bipEpsilon == 0
}

// DRRIP is dynamic RRIP: a set duel between SRRIP insertion (RRPV max-1)
// and BRRIP insertion (RRPV max, except max-1 for one fill in every
// bipEpsilon) decides the policy followed by the remaining sets. One
// set in every 64 leads for each team; a saturating selector counts
// leader-set misses. This is the paper's baseline policy.
type DRRIP struct {
	RRIP
	psel duel
	bip  throttle

	// FillsByKind and DistantFillsByKind count fills per stream kind,
	// total and with insertion RRPV == max ("no near-future reuse").
	// Figure 8 reports DistantFills/Fills for the RT and texture streams.
	FillsByKind        [stream.NumKinds]int64
	DistantFillsByKind [stream.NumKinds]int64
}

var _ cachesim.Policy = (*DRRIP)(nil)

// NewDRRIP returns a DRRIP policy with an n-bit RRPV (the baseline uses
// 2; Fig. 14 also evaluates 4).
func NewDRRIP(bits int) *DRRIP { return &DRRIP{RRIP: NewRRIP(bits)} }

// Name implements cachesim.Policy.
func (p *DRRIP) Name() string { return fmt.Sprintf("DRRIP-%d", p.bits) }

// Reset implements cachesim.Policy.
func (p *DRRIP) Reset(sets, ways int) {
	p.RRIP.Reset(sets, ways)
	p.psel.reset()
	p.bip = 0
	p.FillsByKind = [stream.NumKinds]int64{}
	p.DistantFillsByKind = [stream.NumKinds]int64{}
}

// drripLeader classifies a set: residue 0 of every 64 sets leads for
// SRRIP, residue 33 for BRRIP (spread apart so both teams sample the
// whole index space).
func drripLeader(set int) int {
	switch set & 63 {
	case 0:
		return leaderSRRIP
	case 33:
		return leaderBRRIP
	default:
		return leaderNone
	}
}

// Fill implements cachesim.Policy. A fill is a miss: leader-set fills
// move the selector.
func (p *DRRIP) Fill(set, way int, a stream.Access) {
	v := p.max - 1
	if p.psel.bimodal(drripLeader(set)) && !p.bip.near() {
		v = p.max
	}
	p.SetRRPV(set, way, v)
	p.FillsByKind[a.Kind]++
	if v == p.max {
		p.DistantFillsByKind[a.Kind]++
	}
}

// PSEL exposes the duel selector for tests.
func (p *DRRIP) PSEL() int { return int(p.psel) }

// StreamGroup is the four-way partition of the LLC streams used by the
// stream-aware policies (Section 3): Z, texture sampler, render target,
// and the rest.
type StreamGroup uint8

// The stream groups.
const (
	GroupZ StreamGroup = iota
	GroupTexture
	GroupRT
	GroupOther
	NumStreamGroups
)

// GroupOf maps a stream kind to its group.
func GroupOf(k stream.Kind) StreamGroup {
	switch k {
	case stream.Z:
		return GroupZ
	case stream.Texture:
		return GroupTexture
	case stream.RT, stream.Display:
		// Displayable color is a render target (Section 5.1).
		return GroupRT
	default:
		return GroupOther
	}
}

// String names the group.
func (g StreamGroup) String() string {
	switch g {
	case GroupZ:
		return "Z"
	case GroupTexture:
		return "TEX"
	case GroupRT:
		return "RT"
	default:
		return "OTHER"
	}
}

// GSDRRIP is graphics stream-aware DRRIP: thread-aware DRRIP [20] applied
// to the four graphics stream groups, each with its own duel between
// SRRIP and BRRIP insertion and its own bimodal counter. Residues 2g and
// 2g+1 of every 64 sets lead for group g's SRRIP and BRRIP teams
// respectively; fills of other groups in a leader set follow their own
// group's winner.
type GSDRRIP struct {
	RRIP
	psel [NumStreamGroups]duel
	bip  [NumStreamGroups]throttle
}

var _ cachesim.Policy = (*GSDRRIP)(nil)

// NewGSDRRIP returns a GS-DRRIP policy with an n-bit RRPV.
func NewGSDRRIP(bits int) *GSDRRIP { return &GSDRRIP{RRIP: NewRRIP(bits)} }

// Name implements cachesim.Policy.
func (p *GSDRRIP) Name() string { return fmt.Sprintf("GS-DRRIP-%d", p.bits) }

// Reset implements cachesim.Policy.
func (p *GSDRRIP) Reset(sets, ways int) {
	p.RRIP.Reset(sets, ways)
	for g := range p.psel {
		p.psel[g].reset()
	}
	p.bip = [NumStreamGroups]throttle{}
}

// gsLeader reports which group the set leads for and on which team;
// returns (group, team) with team leaderNone when the set is a follower
// for every group.
func gsLeader(set int) (StreamGroup, int) {
	r := set & 63
	if r < 2*int(NumStreamGroups) {
		return StreamGroup(r / 2), leaderSRRIP + r%2
	}
	return 0, leaderNone
}

// Fill implements cachesim.Policy.
func (p *GSDRRIP) Fill(set, way int, a stream.Access) {
	g := GroupOf(a.Kind)
	team := leaderNone
	if lg, t := gsLeader(set); lg == g {
		team = t
	}
	v := p.max - 1
	if p.psel[g].bimodal(team) && !p.bip[g].near() {
		v = p.max
	}
	p.SetRRPV(set, way, v)
}

// PSELFor exposes the duel selector of a stream group for tests.
func (p *GSDRRIP) PSELFor(g StreamGroup) int { return int(p.psel[g]) }

// BankOf returns the owning LLC bank of each of sets sets when banks
// banks own equal contiguous runs of sets, the last one also the
// remainder; with fewer sets than banks, bank 0 owns them all. Policies
// with per-bank state (SHiP-mem's tables, the GSPC family's counters)
// compute it once in Reset, so Hit and Fill divide nothing.
func BankOf(sets, banks int) []int32 {
	bank := make([]int32, sets)
	if per := sets / banks; per > 0 {
		for s := range bank {
			bank[s] = int32(min(s/per, banks-1))
		}
	}
	return bank
}
