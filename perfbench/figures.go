package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gspc/internal/harness"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/tracecache"
)

// The figures-warm configuration is the one bench_test.go's figure
// benches use: one frame per app at scale 0.15.
const (
	figScale    = 0.15
	figCapacity = 1.5
)

// figureExps are the experiments figures-warm regenerates: Figure 1
// (replay with Belady), Figure 12 (replay of every policy) and Figure 15
// (the timing model).
var figureExps = []string{"fig1", "fig12", "fig15"}

// replays is how many whole-trace LLC simulations one frame of an
// experiment runs: the policy replays plus the timing simulations.
var replays = map[string]int64{
	"fig1":  3, // DRRIP, NRU, Belady
	"fig4":  0, // stream mix only
	"fig5":  3, // Belady, DRRIP, NRU
	"fig12": 9, // DRRIP and the eight Figure 12 policies
	"fig15": 4, // DRRIP, NRU, GS-DRRIP and GSPC+UCD on the timing model
}

// harnessOp is one single-app experiment run through the harness.
type harnessOp struct {
	exp, app string
	sampled  bool
}

func (h harnessOp) options(tc *tracecache.Cache) harness.Options {
	o := harness.Options{
		Scale:           figScale,
		CapacityFactor:  figCapacity,
		MaxFramesPerApp: 1,
		Apps:            []string{h.app},
		TraceCache:      tc,
	}
	if h.sampled {
		// Sampled fidelity's interactive operating point: full resolution.
		o.Scale, o.CapacityFactor, o.Fidelity = 1, 0, harness.FidelitySampled
	}
	return o
}

func (h harnessOp) key() string {
	o := h.options(nil).Normalized()
	return opKey(h.exp, h.app, o.Scale, o.CapacityFactor, h.sampled)
}

func (h harnessOp) label() string {
	if h.sampled {
		return "sampled/" + h.app
	}
	return h.exp + "/" + h.app
}

// runHarnessOp runs one op and checks its table against the pinned one.
func (b *bench) runHarnessOp(h harnessOp, tc *tracecache.Cache, class string, rec *recorder, id int) op {
	t0 := time.Now()
	res, err := harness.RunResultContext(context.Background(), h.exp, h.options(tc))
	o := op{class: class, label: h.label(), ms: msSince(t0)}
	rec.record(fmt.Sprintf("op-%d", id), "op", t0, time.Now(), h.label())
	switch {
	case err != nil:
		b.opFailed("%s: %v", h.label(), err)
	case tableDigest(res.Table) != b.want.Tables[h.key()]:
		b.opFailed("%s: table differs from the pinned one", h.label())
	default:
		o.ok = true
		if !h.sampled {
			o.simAccesses = replays[h.exp] * int64(b.want.length(h.app, figScale))
		}
	}
	return o
}

// cacheCounts are a trace cache's lookups and hits over one drive.
type cacheCounts struct{ lookups, hits int64 }

func countsSince(st0, st1 tracecache.Stats) cacheCounts {
	hits := st1.Hits - st0.Hits
	return cacheCounts{hits: hits, lookups: hits + st1.Misses - st0.Misses + st1.Coalesced - st0.Coalesced}
}

func (c cacheCounts) hitRatio() float64 { return float64(c.hits) / float64(max(c.lookups, 1)) }

// opFailed reports one wrong or failed op; the op itself carries ok=false.
func (b *bench) opFailed(format string, args ...any) {
	fmt.Fprintf(stderrLog, "perfbench: op failed: "+format+"\n", args...)
}

// figuresWarm replays whole passes of the 36 (experiment, app) pairs in
// a seeded order against a trace cache filled at set-up.
type figuresWarm struct {
	b     *bench
	tc    *tracecache.Cache
	rng   *rand.Rand
	queue []harnessOp
	n     int
	last  cacheCounts
}

func setupFiguresWarm(b *bench) (session, error) {
	tc := tracecache.New(harness.DefaultTraceCacheBytes)
	if err := fillTraceCache(b, tc, figScale); err != nil {
		return nil, err
	}
	s := &figuresWarm{b: b, tc: tc, rng: rand.New(rand.NewSource(b.cfg.seed))}
	// One op per experiment exercises every code path before timing.
	for _, exp := range figureExps {
		if o := b.runHarnessOp(harnessOp{exp: exp, app: "Dirt"}, tc, classOther, nil, 0); !o.ok {
			return nil, fmt.Errorf("warm-up op %s failed", o.label)
		}
	}
	return s, nil
}

func (s *figuresWarm) next() harnessOp {
	if len(s.queue) == 0 {
		for _, exp := range figureExps {
			for _, app := range apps() {
				s.queue = append(s.queue, harnessOp{exp: exp, app: app})
			}
		}
		s.rng.Shuffle(len(s.queue), func(i, j int) { s.queue[i], s.queue[j] = s.queue[j], s.queue[i] })
	}
	h := s.queue[0]
	s.queue = s.queue[1:]
	return h
}

func (s *figuresWarm) drive(deadline time.Time, rec *recorder) []op {
	st0 := s.tc.Stats()
	defer func() { s.last = countsSince(st0, s.tc.Stats()) }()
	var ops []op
	for time.Now().Before(deadline) {
		h := s.next()
		class := classLight
		if h.exp == "fig15" {
			class = classHeavy
		}
		s.n++
		ops = append(ops, s.b.runHarnessOp(h, s.tc, class, rec, s.n))
	}
	return ops
}

func (s *figuresWarm) probes() probeSpec { return suiteSpec(figScale, figCapacity) }
func (s *figuresWarm) close()            {}

// fillTraceCache synthesizes every app's first frame at scale into tc
// under the harness's trace-cache key, in parallel like the harness's own
// synthesis pool, and checks each length against the pinned one.
func fillTraceCache(b *bench, tc *tracecache.Cache, scale float64) error {
	cfg := rendercache.DefaultConfig().Scaled(scale)
	names := apps()
	errs := make([]error, len(names))
	workers := min(runtime.GOMAXPROCS(0), 4)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := harness.Options{Apps: []string{names[i]}, MaxFramesPerApp: 1}.Jobs()[0]
				key := tracecache.Key{Job: j.ID(), Scale: scale, Config: cfg.Digest()}
				tr, err := tc.Get(context.Background(), key, func(context.Context) (*stream.Trace, error) {
					t := stream.NewTrace(trace.EstimateAccesses(j, scale))
					trace.GeneratePackedInto(t, j, scale, cfg)
					return t, nil
				})
				if err == nil && tr.Len() != b.want.length(names[i], scale) {
					err = fmt.Errorf("%s at scale %g: %d LLC accesses, pinned %d",
						names[i], scale, tr.Len(), b.want.length(names[i], scale))
				}
				errs[i] = err
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryCold runs first queries: each op gets a fresh private trace
// cache, so it pays synthesis. Ops come in seeded passes of 48 — each app
// three times exact and once sampled — and every fourth op is sampled.
type queryCold struct {
	b     *bench
	rng   *rand.Rand
	queue []harnessOp
	n     int
	last  cacheCounts
}

func setupQueryCold(b *bench) (session, error) {
	return &queryCold{b: b, rng: rand.New(rand.NewSource(b.cfg.seed))}, nil
}

func (s *queryCold) next() harnessOp {
	if len(s.queue) == 0 {
		var exact, sampled []harnessOp
		for _, app := range apps() {
			for i := 0; i < 3; i++ {
				exact = append(exact, harnessOp{exp: "fig12", app: app})
			}
			sampled = append(sampled, harnessOp{exp: "fig12", app: app, sampled: true})
		}
		s.rng.Shuffle(len(exact), func(i, j int) { exact[i], exact[j] = exact[j], exact[i] })
		s.rng.Shuffle(len(sampled), func(i, j int) { sampled[i], sampled[j] = sampled[j], sampled[i] })
		for i, h := range sampled {
			s.queue = append(s.queue, exact[3*i:3*i+3]...)
			s.queue = append(s.queue, h)
		}
	}
	h := s.queue[0]
	s.queue = s.queue[1:]
	return h
}

func (s *queryCold) drive(deadline time.Time, rec *recorder) []op {
	var ops []op
	s.last = cacheCounts{}
	for time.Now().Before(deadline) {
		h := s.next()
		class := classLight
		if h.sampled {
			class = classHeavy
		}
		s.n++
		tc := tracecache.New(harness.DefaultTraceCacheBytes)
		ops = append(ops, s.b.runHarnessOp(h, tc, class, rec, s.n))
		c := countsSince(tracecache.Stats{}, tc.Stats())
		s.last.hits += c.hits
		s.last.lookups += c.lookups
	}
	return ops
}

func (s *queryCold) probes() probeSpec { return suiteSpec(figScale, figCapacity) }
func (s *queryCold) close()            {}
