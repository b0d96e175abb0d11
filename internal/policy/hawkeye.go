package policy

import (
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// Hawkeye is a stream-trained variant of the OPT-learning policy of Jain
// and Lin (ISCA 2016), included as a "what would a modern policy do"
// extension beyond the paper's 2013 baselines. Sampled sets reconstruct
// Belady's optimal decisions online with an OPTgen occupancy vector; each
// reconstructed hit or miss trains a per-stream counter (graphics
// fixed-function units have no program counters, so the stream kind
// plays the role of Hawkeye's PC signature). Fills of OPT-friendly
// streams insert protected, OPT-averse streams insert distant; victims
// prefer averse blocks.
type Hawkeye struct {
	RRIP
	sets int

	// Per-stream training counters (positive = cache-friendly).
	train [stream.NumKinds]int

	// OPTgen state for sampled sets.
	gens map[int]*optgen
}

var _ cachesim.Policy = (*Hawkeye)(nil)

// hawkeyeSampleEvery selects one OPTgen set per this many sets.
const hawkeyeSampleEvery = 32

// optgenWindow is the reconstruction horizon in set-accesses.
const optgenWindow = 128

// trainMax bounds the per-stream counters.
const trainMax = 31

type optgen struct {
	ways int
	// time is the set-local access clock.
	time int64
	// occupancy[t % optgenWindow] counts the liveness intervals covering
	// set-time t.
	occupancy [optgenWindow]uint8
	// last maps block number -> (last access time, stream of that access).
	last map[uint64]optgenEntry
}

type optgenEntry struct {
	t    int64
	kind stream.Kind
}

// access reconstructs OPT's decision for a touch of block bn and returns
// the stream to train and whether OPT would have hit (valid only when
// trainable is true). Blocks that age out of the reconstruction window
// without a re-touch were OPT misses; their streams are detrained via
// the expired callback.
func (g *optgen) access(bn uint64, k stream.Kind, expired func(stream.Kind)) (trainKind stream.Kind, optHit, trainable bool) {
	defer func() {
		g.last[bn] = optgenEntry{t: g.time, kind: k}
		g.time++
		g.occupancy[g.time%optgenWindow] = 0
		if len(g.last) > 2*optgenWindow {
			for b, e := range g.last {
				if g.time-e.t > optgenWindow {
					expired(e.kind)
					delete(g.last, b)
				}
			}
		}
	}()
	prev, ok := g.last[bn]
	if !ok || g.time-prev.t >= optgenWindow {
		return 0, false, false
	}
	// OPT caches the interval [prev.t, time) iff every covered slot has
	// spare capacity.
	for t := prev.t; t < g.time; t++ {
		if g.occupancy[t%optgenWindow] >= uint8(g.ways) {
			return prev.kind, false, true
		}
	}
	for t := prev.t; t < g.time; t++ {
		g.occupancy[t%optgenWindow]++
	}
	return prev.kind, true, true
}

// NewHawkeye returns a stream-trained Hawkeye policy with a 2-bit RRPV.
func NewHawkeye() *Hawkeye {
	return &Hawkeye{RRIP: NewRRIP(2)}
}

// Name implements cachesim.Policy.
func (p *Hawkeye) Name() string { return "Hawkeye" }

// Reset implements cachesim.Policy.
func (p *Hawkeye) Reset(sets, ways int) {
	p.RRIP.Reset(sets, ways)
	p.sets = sets
	p.train = [stream.NumKinds]int{}
	p.gens = make(map[int]*optgen)
}

func (p *Hawkeye) sample(set int, a stream.Access) {
	if set%hawkeyeSampleEvery != 0 {
		return
	}
	g := p.gens[set]
	if g == nil {
		g = &optgen{ways: p.ways, last: make(map[uint64]optgenEntry)}
		p.gens[set] = g
	}
	kind, optHit, ok := g.access(a.Addr>>6, a.Kind, func(k stream.Kind) {
		if p.train[k] > -trainMax {
			p.train[k]--
		}
	})
	if !ok {
		return
	}
	if optHit {
		if p.train[kind] < trainMax {
			p.train[kind]++
		}
	} else {
		if p.train[kind] > -trainMax {
			p.train[kind]--
		}
	}
}

// Friendly reports whether the stream is currently predicted
// cache-friendly; exported for tests.
func (p *Hawkeye) Friendly(k stream.Kind) bool { return p.train[k] >= 0 }

// Hit implements cachesim.Policy: a hit trains and re-predicts the block
// exactly as a fill does.
func (p *Hawkeye) Hit(set, way int, a stream.Access) { p.Fill(set, way, a) }

// Fill implements cachesim.Policy.
func (p *Hawkeye) Fill(set, way int, a stream.Access) {
	p.sample(set, a)
	v := p.max
	if p.Friendly(a.Kind) {
		v = 0
	}
	p.SetRRPV(set, way, v)
}
