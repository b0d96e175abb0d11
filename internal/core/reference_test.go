package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// refGSPC is a deliberately naive reference model of an LLC managed by
// a member of the GSPC family, written from Section 3 and Tables 3-5 of
// the paper, not from Policy. Each set is a slice of resident lines in
// arrival order, each with its tag, its two-bit RRPV, its two state bits
// and the physical way it occupies: fills of a non-full set take the
// next way in order, and a fill that evicts takes the victim's way.
// Every LLC bank owns one block of counters.
type refGSPC struct {
	sets, ways int
	every      int  // one sample set in every `every` sets
	t          int  // the reuse threshold multiplier T
	epochs     bool // GSPZTC+TSE and GSPC: texture epochs E1 and E2
	rtManaged  bool // GSPC: PROD/CONS render-target insertion
	banks      []refCounters
	lines      [][]refLine
	ins        InsertionStats
	cover      *refCover
}

// The two state bits of Figure 10.
const (
	refE0 = iota // texture epoch 0, and every block that is not a render target
	refE1        // texture epoch 1
	refE2        // texture epoch 2 or later
	refRT        // render target
)

type refLine struct {
	tag   uint64
	rrpv  int
	state int
	way   int
}

// refCounters is one bank's counter block: 8-bit saturating counters,
// plus ACC(ALL), which counts the bank's sample-set accesses in 7 bits.
// FILL(TEX) and HIT(TEX) of plain GSPZTC are the epoch-0 pair.
type refCounters struct {
	fillZ, hitZ int
	fillE, hitE [2]int
	prod, cons  int
	acc         int
}

// refCover counts, across every trace, the rare events the test demands
// at least once, and the non-sample fill decisions of GSPC runs.
type refCover struct {
	halvings, consumptions int
	gspc                   InsertionStats
}

func newRefGSPC(tr gspcTrace, cover *refCover) *refGSPC {
	return &refGSPC{
		sets: tr.Sets, ways: tr.Ways, every: tr.P.SampleEvery, t: tr.P.T,
		epochs:    tr.P.Variant != VariantGSPZTC,
		rtManaged: tr.P.Variant == VariantGSPC,
		banks:     make([]refCounters, tr.P.Banks),
		lines:     make([][]refLine, tr.Sets),
		cover:     cover,
	}
}

// refIsSample: set s is a sample set iff s mod m == (s div m) mod m.
func refIsSample(s, m int) bool { return s%m == (s/m)%m }

// bank returns the counters of the bank owning set s. Banks own equal
// runs of sets, the last bank also the remainder; with fewer sets than
// banks, bank 0 owns every set.
func (r *refGSPC) bank(s int) *refCounters {
	n := len(r.banks)
	if r.sets < n {
		return &r.banks[0]
	}
	return &r.banks[min(s/(r.sets/n), n-1)]
}

func inc(c *int) {
	if *c < 255 {
		*c++
	}
}

// tick counts a sample-set access in ACC(ALL). The 128th since the last
// halving halves every counter of the bank and restarts ACC at 0.
func (r *refGSPC) tick(c *refCounters) {
	c.acc++
	if c.acc < 128 {
		return
	}
	*c = refCounters{
		fillZ: c.fillZ / 2, hitZ: c.hitZ / 2,
		fillE: [2]int{c.fillE[0] / 2, c.fillE[1] / 2},
		hitE:  [2]int{c.hitE[0] / 2, c.hitE[1] / 2},
		prod:  c.prod / 2, cons: c.cons / 2,
	}
	r.cover.halvings++
}

// dead reports a sampled reuse probability below 1/(T+1): FILL > T*HIT.
func (r *refGSPC) dead(fill, hit int) bool { return fill > r.t*hit }

// texRRPV is the RRPV of a non-sample block entering texture epoch e:
// distant when the epoch looks dead, zero otherwise.
func (r *refGSPC) texRRPV(c *refCounters, e int) int {
	if r.dead(c.fillE[e], c.hitE[e]) {
		return 3
	}
	return 0
}

// Displayable color is a render target to the policy (Section 5.1).
func isRT(k stream.Kind) bool { return k == stream.RT || k == stream.Display }

// access returns whether a hit, the block number the access evicted and
// whether it evicted one.
func (r *refGSPC) access(a stream.Access) (hit bool, evicted uint64, evicts bool) {
	bn := a.Addr >> 6
	set := int(bn % uint64(r.sets))
	ls := r.lines[set]
	for i := range ls {
		if ls[i].tag == bn {
			r.hit(set, &ls[i], a.Kind)
			return true, 0, false
		}
	}
	way := len(ls)
	if len(ls) == r.ways {
		v := refVictim(ls)
		evicted, evicts, way = ls[v].tag, true, ls[v].way
		ls = append(ls[:v], ls[v+1:]...)
	}
	l := refLine{tag: bn, way: way}
	r.fill(set, &l, a.Kind)
	r.lines[set] = append(ls, l)
	return false, evicted, evicts
}

// refVictim returns the index of the line to evict: among the lines at
// RRPV 3, the one in the lowest physical way; when there is none, every
// line ages by one and the search repeats.
func refVictim(ls []refLine) int {
	for {
		best := -1
		for i, l := range ls {
			if l.rrpv == 3 && (best < 0 || l.way < ls[best].way) {
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

// hit applies Tables 3-5 to a hit. Sample sets run SRRIP and learn;
// other sets promote to zero, except that a texture hit moves the block
// up the ladder RT -> E0 -> E1 -> E2 and takes the RRPV the entered
// epoch's reuse probability calls for.
func (r *refGSPC) hit(set int, l *refLine, k stream.Kind) {
	c := r.bank(set)
	l.rrpv = 0
	if refIsSample(set, r.every) {
		r.tick(c)
		switch {
		case k == stream.Z:
			inc(&c.hitZ)
		case k == stream.Texture:
			switch l.state {
			case refRT:
				// Render target consumed as a texture: an epoch-0
				// texture fill, and for GSPC a consumption.
				inc(&c.fillE[0])
				if r.rtManaged {
					inc(&c.cons)
				}
				l.state = refE0
				r.cover.consumptions++
			case refE0:
				inc(&c.hitE[0])
				if r.epochs {
					inc(&c.fillE[1])
					l.state = refE1
				}
			case refE1:
				inc(&c.hitE[1])
				l.state = refE2
			}
		case isRT(k):
			l.state = refRT
		}
		return
	}
	switch {
	case k == stream.Texture:
		switch l.state {
		case refRT:
			l.state = refE0
			l.rrpv = r.texRRPV(c, 0)
		case refE0:
			if r.epochs {
				l.state = refE1
				l.rrpv = r.texRRPV(c, 1)
			}
		default:
			l.state = refE2
		}
	case isRT(k):
		l.state = refRT
	}
}

// fill applies Tables 3-5 to a fill. A render target enters state RT,
// every other block E0. Sample sets insert at RRPV 2 and count; other
// sets insert Z long or distant, textures zero or distant, and render
// targets at zero, or for GSPC by the PROD/CONS bands (16 and 8);
// everything else inserts long.
func (r *refGSPC) fill(set int, l *refLine, k stream.Kind) {
	c := r.bank(set)
	l.rrpv, l.state = 2, refE0
	if isRT(k) {
		l.state = refRT
	}
	if refIsSample(set, r.every) {
		r.tick(c)
		switch {
		case k == stream.Z:
			inc(&c.fillZ)
		case k == stream.Texture:
			inc(&c.fillE[0])
		case isRT(k) && r.rtManaged:
			inc(&c.prod)
		}
		return
	}
	switch {
	case k == stream.Z:
		if r.dead(c.fillZ, c.hitZ) {
			l.rrpv = 3
			r.ins.ZDistant++
		} else {
			r.ins.ZLong++
		}
	case k == stream.Texture:
		l.rrpv = r.texRRPV(c, 0)
		if l.rrpv == 3 {
			r.ins.TexDistant++
		} else {
			r.ins.TexZero++
		}
	case isRT(k):
		switch {
		case !r.rtManaged:
			l.rrpv = 0
			r.ins.RTZero++
		case c.prod > 16*c.cons:
			l.rrpv = 3
			r.ins.RTDistant++
		case c.prod > 8*c.cons:
			r.ins.RTLong++
		default:
			l.rrpv = 0
			r.ins.RTZero++
		}
	}
}

// counters renders a bank's counters in the policy's layout; every
// value already fits its field.
func (c *refCounters) counters() Counters {
	return Counters{
		FillZ: uint8(c.fillZ), HitZ: uint8(c.hitZ),
		FillE: [2]uint8{uint8(c.fillE[0]), uint8(c.fillE[1])},
		HitE:  [2]uint8{uint8(c.hitE[0]), uint8(c.hitE[1])},
		Prod:  uint8(c.prod), Cons: uint8(c.cons),
		Acc: uint8(c.acc),
	}
}

// gspcTrace is a random LLC trace for a random family member,
// geometry and parameter set: 16 to 256 sets, 2 to 40 ways, one sample
// set in 2, 4, 8 or 64, 1, 2, 4 or 8 banks and T of 1, 2, 4 or 8. It
// runs in phases; each phase draws its blocks from a pool of its own
// size, so some phases hit and others thrash, and its stream kinds
// uniformly or mostly from one of Z, texture and render target, so
// each stream's sampled reuse moves and blocks change streams. Half of
// all accesses go to sample sets. The model and the cache are both
// reset at ResetAt.
type gspcTrace struct {
	P          Params
	Sets, Ways int
	Accs       []stream.Access
	ResetAt    int
}

// Generate implements quick.Generator.
func (gspcTrace) Generate(r *rand.Rand, size int) reflect.Value {
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	tr := gspcTrace{
		P:    Params{Variant: Variant(r.Intn(3)), T: pick(1, 2, 4, 8), Banks: pick(1, 2, 4, 8), SampleEvery: pick(2, 4, 8, 64)},
		Sets: 16 + r.Intn(241),
		Ways: 2 + r.Intn(39),
	}
	var samples []int
	for s := range tr.Sets {
		if refIsSample(s, tr.P.SampleEvery) {
			samples = append(samples, s)
		}
	}
	hot := []stream.Kind{stream.Z, stream.Texture, stream.RT}
	for range 2 + r.Intn(6) {
		pool := 1 + r.Intn(4*tr.Ways)
		bias := r.Intn(len(hot) + 1) // len(hot): no bias
		for range 200 + r.Intn(1200) {
			set := r.Intn(tr.Sets)
			if r.Intn(2) == 0 {
				set = samples[r.Intn(len(samples))]
			}
			k := stream.Kind(r.Intn(int(stream.NumKinds)))
			if bias < len(hot) && r.Intn(4) != 0 {
				k = hot[bias]
			}
			bn := uint64(r.Intn(pool)*tr.Sets + set)
			tr.Accs = append(tr.Accs, stream.Access{Addr: bn<<6 | uint64(r.Intn(64)), Kind: k, Write: r.Intn(4) == 0})
		}
	}
	tr.ResetAt = r.Intn(2*len(tr.Accs) + 1)
	return reflect.ValueOf(tr)
}

// TestGSPCMatchesReference replays random traces through cachesim.Cache
// with the family's Policy and through refGSPC side by side. On every
// access it demands the same hit or miss, the same evicted block (from
// the cache's EvEvict event), the same RRPV and state bits in every
// resident way of the accessed set and the same counters in its bank;
// before each reset and at the end of each trace, the same insertion
// tallies. It also demands that the traces took every branch a dropped
// or misplaced rule would hide in: ACC halvings, Z distant and long
// fills, texture distant and zero fills, GSPC render-target distant,
// long and zero fills, and sample-set RT -> texture consumption.
func TestGSPCMatchesReference(t *testing.T) {
	var cover refCover
	f := func(tr gspcTrace) bool {
		g := New(tr.P)
		c := cachesim.New(cachesim.Geometry{SizeBytes: tr.Sets * tr.Ways * 64, Ways: tr.Ways, BlockSize: 64}, g)
		var evicted uint64
		var evicts bool
		c.AddObserver(cachesim.ObserverFunc(func(ev cachesim.Event) {
			if ev.Type == cachesim.EvEvict {
				evicted, evicts = ev.Tag, true
			}
		}))
		ref := newRefGSPC(tr, &cover)
		sameInsertions := func() bool {
			if tr.P.Variant == VariantGSPC {
				addInsertions(&cover.gspc, ref.ins)
			}
			return g.Insertions == ref.ins
		}
		for i, a := range tr.Accs {
			if i == tr.ResetAt {
				if !sameInsertions() {
					return false
				}
				c.Reset()
				ref = newRefGSPC(tr, &cover)
			}
			evicts = false
			hit := c.Access(a)
			refHit, refEvicted, refEvicts := ref.access(a)
			if hit != refHit || evicts != refEvicts || evicts && evicted != refEvicted {
				return false
			}
			set := int((a.Addr >> 6) % uint64(tr.Sets))
			for _, l := range ref.lines[set] {
				if int(g.RRPV(set, l.way)) != l.rrpv || int(g.StateOf(set, l.way)) != l.state {
					return false
				}
			}
			if g.CountersFor(set) != ref.bank(set).counters() {
				return false
			}
		}
		return sameInsertions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		what string
		n    int64
	}{
		{"ACC(ALL) halvings", int64(cover.halvings)},
		{"sample-set RT -> texture consumptions", int64(cover.consumptions)},
		{"GSPC Z distant fills", cover.gspc.ZDistant},
		{"GSPC Z long fills", cover.gspc.ZLong},
		{"GSPC texture distant fills", cover.gspc.TexDistant},
		{"GSPC texture zero fills", cover.gspc.TexZero},
		{"GSPC render-target distant fills", cover.gspc.RTDistant},
		{"GSPC render-target long fills", cover.gspc.RTLong},
		{"GSPC render-target zero fills", cover.gspc.RTZero},
	} {
		if e.n == 0 {
			t.Errorf("the traces made no %s", e.what)
		}
	}
}

func addInsertions(sum *InsertionStats, in InsertionStats) {
	sum.ZDistant += in.ZDistant
	sum.ZLong += in.ZLong
	sum.TexDistant += in.TexDistant
	sum.TexZero += in.TexZero
	sum.RTDistant += in.RTDistant
	sum.RTLong += in.RTLong
	sum.RTZero += in.RTZero
}
