package policy

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// refRRIP is a deliberately naive reference model of an RRIP-managed
// set-associative cache, written from the RRIP pseudo-code of Jaleel et
// al. [19] and the paper's Section 3, not from the production types.
// Each set is a slice of resident lines in arrival order, each with its
// tag, its RRPV and the physical way it occupies: fills of a non-full
// set take the next way in order, and a fill that evicts takes the
// victim's way. Only the insertion RRPV differs between SRRIP, DRRIP
// and GS-DRRIP; insert chooses it for every fill.
type refRRIP struct {
	sets, ways int
	max        int // distant RRPV, 2^bits - 1
	lines      [][]refRRIPLine
	insert     func(set int, k stream.Kind) int
}

type refRRIPLine struct {
	tag  uint64
	rrpv int
	way  int
}

func newRefRRIP(sets, ways, bits int, insert func(set int, k stream.Kind) int) *refRRIP {
	return &refRRIP{sets: sets, ways: ways, max: 1<<bits - 1, lines: make([][]refRRIPLine, sets), insert: insert}
}

// access returns whether a hit, the block number the access evicted and
// whether it evicted one.
func (r *refRRIP) access(a stream.Access) (hit bool, evicted uint64, evicts bool) {
	bn := a.Addr >> 6
	set := int(bn % uint64(r.sets))
	ls := r.lines[set]
	for i := range ls {
		if ls[i].tag == bn {
			ls[i].rrpv = 0 // hit promotion (RRIP-HP)
			return true, 0, false
		}
	}
	way := len(ls)
	if len(ls) == r.ways {
		v := r.victim(ls)
		evicted, evicts, way = ls[v].tag, true, ls[v].way
		ls = append(ls[:v], ls[v+1:]...)
	}
	r.lines[set] = append(ls, refRRIPLine{tag: bn, rrpv: r.insert(set, a.Kind), way: way})
	return false, evicted, evicts
}

// victim returns the index of the line to evict: among the lines at the
// distant RRPV, the one in the lowest physical way; when there is none,
// every line ages by one and the search repeats.
func (r *refRRIP) victim(ls []refRRIPLine) int {
	for {
		best := -1
		for i, l := range ls {
			if l.rrpv == r.max && (best < 0 || l.way < ls[best].way) {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		for i := range ls {
			ls[i].rrpv++
		}
	}
}

// The teams of a set duel: a leader set of either team always follows
// its team's insertion, a follower set follows the selector's winner.
const (
	refFollower = iota
	refSRRIPTeam
	refBRRIPTeam
)

// refDuel is one SRRIP-versus-BRRIP set duel: a 10-bit saturating
// selector that starts at 511, goes up on SRRIP-leader misses and down
// on BRRIP-leader misses, with BRRIP winning at 512 and above; and the
// bimodal counter of the BRRIP team, which makes every 32nd BRRIP-team
// fill a long (max-1) insertion and the others distant.
type refDuel struct {
	psel    int
	bimodal int // BRRIP-team fills since the last long insertion
	// crossed counts the selector's moves across its midpoint, toward
	// BRRIP and toward SRRIP, for the tests' coverage checks.
	crossed *[2]int
}

func newRefDuel(crossed *[2]int) *refDuel { return &refDuel{psel: 511, crossed: crossed} }

// fill returns the insertion RRPV of a miss in a set of the given team.
func (d *refDuel) fill(team, max int) int {
	switch team {
	case refSRRIPTeam:
		if d.psel < 1023 {
			d.psel++
			if d.psel == 512 {
				d.crossed[0]++
			}
		}
	case refBRRIPTeam:
		if d.psel > 0 {
			d.psel--
			if d.psel == 511 {
				d.crossed[1]++
			}
		}
	}
	if team == refSRRIPTeam || team == refFollower && d.psel < 512 {
		return max - 1
	}
	d.bimodal++
	if d.bimodal == 32 {
		d.bimodal = 0
		return max - 1
	}
	return max
}

// refDRRIPTeam: set 0 of every 64 leads for SRRIP, set 33 for BRRIP.
func refDRRIPTeam(set int) int {
	switch set % 64 {
	case 0:
		return refSRRIPTeam
	case 33:
		return refBRRIPTeam
	}
	return refFollower
}

// refGroup is the paper's four-way stream partition: Z, texture, render
// target (displayable color included), and the rest.
func refGroup(k stream.Kind) int {
	switch k {
	case stream.Z:
		return 0
	case stream.Texture:
		return 1
	case stream.RT, stream.Display:
		return 2
	}
	return 3
}

// refGSTeam: set 2g of every 64 leads for group g's SRRIP team and set
// 2g+1 for its BRRIP team; for the fills of every other group the set is
// a follower.
func refGSTeam(set, g int) int {
	switch set % 64 {
	case 2 * g:
		return refSRRIPTeam
	case 2*g + 1:
		return refBRRIPTeam
	}
	return refFollower
}

// rripTrace is a random LLC trace with a random geometry: 64 to 256
// sets, so that leader sets of both teams exist, 2 to 16 ways and a 2-
// or 4-bit RRPV. It runs in phases; each phase draws its blocks from a
// pool of its own size, so some phases hit and others thrash, sends
// half its accesses to sets of one leader residue (DRRIP's or a GS-DRRIP
// group's) to move that duel's selector, and may fix the stream kind.
// The model and the cache are both reset at ResetAt.
type rripTrace struct {
	Sets, Ways, Bits int
	Accs             []stream.Access
	ResetAt          int
}

// Generate implements quick.Generator.
func (rripTrace) Generate(r *rand.Rand, size int) reflect.Value {
	tr := rripTrace{Sets: 64 + r.Intn(193), Ways: 2 + r.Intn(15), Bits: 2 + 2*r.Intn(2)}
	residues := []int{0, 33, 0, 1, 2, 3, 4, 5, 6, 7}
	for range 2 + r.Intn(6) {
		residue := residues[r.Intn(len(residues))]
		pool := 1 + r.Intn(4*tr.Ways)
		kind := stream.Kind(r.Intn(int(stream.NumKinds)))
		mixed := r.Intn(2) == 0
		for range 200 + r.Intn(1200) {
			set := r.Intn(tr.Sets)
			if r.Intn(2) == 0 {
				set = residue + 64*r.Intn((tr.Sets-residue+63)/64)
			}
			k := kind
			if mixed {
				k = stream.Kind(r.Intn(int(stream.NumKinds)))
			}
			bn := uint64(r.Intn(pool)*tr.Sets + set)
			tr.Accs = append(tr.Accs, stream.Access{Addr: bn<<6 | uint64(r.Intn(64)), Kind: k, Write: r.Intn(4) == 0})
		}
	}
	tr.ResetAt = r.Intn(2*len(tr.Accs) + 1)
	return reflect.ValueOf(tr)
}

// rrpvReader is the read-out every RRIP policy offers tests.
type rrpvReader interface {
	RRPV(set, way int) uint8
}

// checkAgainstRef replays a trace through cachesim.Cache with pol and
// through ref side by side. On every access it demands the same hit or
// miss, the same evicted block (from the cache's EvEvict event), the
// same RRPV in every resident way of the accessed set, and, through
// sameDuel, the same selectors.
func checkAgainstRef(tr rripTrace, pol cachesim.Policy, newRef func() *refRRIP, sameDuel func() bool) bool {
	c := cachesim.New(cachesim.Geometry{SizeBytes: tr.Sets * tr.Ways * 64, Ways: tr.Ways, BlockSize: 64}, pol)
	var evicted uint64
	var evicts bool
	c.AddObserver(cachesim.ObserverFunc(func(ev cachesim.Event) {
		if ev.Type == cachesim.EvEvict {
			evicted, evicts = ev.Tag, true
		}
	}))
	ref := newRef()
	rr := pol.(rrpvReader)
	for i, a := range tr.Accs {
		if i == tr.ResetAt {
			c.Reset()
			ref = newRef()
		}
		evicts = false
		hit := c.Access(a)
		refHit, refEvicted, refEvicts := ref.access(a)
		if hit != refHit || evicts != refEvicts || evicts && evicted != refEvicted {
			return false
		}
		set := int((a.Addr >> 6) % uint64(tr.Sets))
		for _, l := range ref.lines[set] {
			if int(rr.RRPV(set, l.way)) != l.rrpv {
				return false
			}
		}
		if !sameDuel() {
			return false
		}
	}
	return true
}

// TestSRRIPMatchesReference: every fill inserts at max-1.
func TestSRRIPMatchesReference(t *testing.T) {
	f := func(tr rripTrace) bool {
		newRef := func() *refRRIP {
			return newRefRRIP(tr.Sets, tr.Ways, tr.Bits, func(int, stream.Kind) int { return 1<<tr.Bits - 2 })
		}
		return checkAgainstRef(tr, NewSRRIP(tr.Bits), newRef, func() bool { return true })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDRRIPMatchesReference: one duel for the whole cache. It also
// demands that the selector crosses its midpoint both ways, so the
// followers are seen to switch teams.
func TestDRRIPMatchesReference(t *testing.T) {
	var crossed [2]int
	f := func(tr rripTrace) bool {
		var duel *refDuel
		newRef := func() *refRRIP {
			duel = newRefDuel(&crossed)
			return newRefRRIP(tr.Sets, tr.Ways, tr.Bits, func(set int, _ stream.Kind) int {
				return duel.fill(refDRRIPTeam(set), 1<<tr.Bits-1)
			})
		}
		p := NewDRRIP(tr.Bits)
		return checkAgainstRef(tr, p, newRef, func() bool { return p.PSEL() == duel.psel })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if crossed[0] == 0 || crossed[1] == 0 {
		t.Errorf("selector crossed its midpoint %d times toward BRRIP and %d toward SRRIP; want both", crossed[0], crossed[1])
	}
}

// TestGSDRRIPMatchesReference: one duel, with its own selector and
// bimodal counter, per stream group.
func TestGSDRRIPMatchesReference(t *testing.T) {
	var crossed [4][2]int
	f := func(tr rripTrace) bool {
		var duels [4]*refDuel
		newRef := func() *refRRIP {
			for g := range duels {
				duels[g] = newRefDuel(&crossed[g])
			}
			return newRefRRIP(tr.Sets, tr.Ways, tr.Bits, func(set int, k stream.Kind) int {
				g := refGroup(k)
				return duels[g].fill(refGSTeam(set, g), 1<<tr.Bits-1)
			})
		}
		p := NewGSDRRIP(tr.Bits)
		same := func() bool {
			for g, d := range duels {
				if p.PSELFor(StreamGroup(g)) != d.psel {
					return false
				}
			}
			return true
		}
		return checkAgainstRef(tr, p, newRef, same)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for g, c := range crossed {
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("group %d selector crossed its midpoint %d times toward BRRIP and %d toward SRRIP; want both", g, c[0], c[1])
		}
	}
}
