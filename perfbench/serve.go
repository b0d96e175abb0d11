package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gspc/internal/cluster"
	"gspc/internal/harness"
	"gspc/internal/service"
	"gspc/internal/telemetry"
	"gspc/internal/tracecache"
)

// serve-mix traffic. Popular keys are single-app runs of four figures at
// a small scale: 48 keys, fewer than the engines' 128-entry result
// caches, so after priming they are hits. First-time keys reuse a
// popular (figure, app) with a capacity factor no one has asked for, so
// each one is a new result key over an already-warm trace.
const (
	serveScale    = 0.05
	serveCapacity = 1.5
	serveClients  = 2
	// missShare of requests carry a first-time key.
	missShare = 0.02
	// Every pairEvery-th request of each client is a first-time key that
	// both clients send at the same moment, so the two coalesce.
	pairEvery = 200
	// zipfS skews popularity: rank r is drawn with weight 1/(r+1)^zipfS.
	zipfS = 1.0
	// A first-time key's capacity factor is a bucket base plus a unique
	// offset of n×missOffsetStep, n < missOffsetSpan/missOffsetStep. Each
	// base sits 0.1 sets into a geometry and the span covers 0.41 sets, so
	// every offset keeps the base's geometry and its pinned table.
	missOffsetStep = 1e-7
	missOffsetSpan = 0.02
	// keepFinished bounds each engine's finished-job retention.
	keepFinished = 128
)

var (
	serveExps   = []string{"fig1", "fig4", "fig5", "fig12"}
	missExps    = []string{"fig1", "fig5", "fig12"}
	missBuckets = []float64{1.1768, 1.7627, 2.3486}
)

// serveReq is one generated request.
type serveReq struct {
	exp, app string
	body     []byte
	// want is the pinned table the reply must carry.
	want  string
	fresh bool
}

func (b *bench) newServeReq(exp, app string, capf float64, fresh bool) serveReq {
	body, _ := json.Marshal(service.Request{
		Experiment: exp, Scale: serveScale, CapacityFactor: capf, Frames: 1, Apps: []string{app},
	})
	base := serveCapacity
	if fresh {
		base = missBuckets[0]
		for _, bk := range missBuckets {
			if capf >= bk {
				base = bk
			}
		}
	}
	return serveReq{exp: exp, app: app, body: body, fresh: fresh,
		want: b.want.Tables[opKey(exp, app, serveScale, base, false)]}
}

type serveMix struct {
	b       *bench
	tc      *tracecache.Cache
	engines []*service.Engine
	members []*http.Server
	coSrv   *http.Server
	co      *cluster.Coordinator
	url     string
	clients [serveClients]*http.Client
	rngs    [serveClients]*rand.Rand
	next    [serveClients]int
	// popular holds the popular keys in seeded rank order; cum their
	// cumulative Zipf weights.
	popular []serveReq
	cum     []float64
	solo    [serveClients]int // first-time keys each client has drawn
	pairs   pairing
	// verified maps a request body to the reply body already checked
	// against the pinned table, so repeated hits compare bytes only.
	verified sync.Map
	// rec, when set, receives spans from the handlers and the engines'
	// runner.
	rec atomic.Pointer[recorder]
	// last holds the trace-cache counters of the last drive.
	last cacheCounts
}

func setupServeMix(b *bench) (session, error) {
	s := &serveMix{b: b, tc: tracecache.New(harness.DefaultTraceCacheBytes)}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	run := func(ctx context.Context, r service.Request) (*harness.Result, error) {
		o := r.Options()
		// Both engines share one trace cache, as engines in one gspcd
		// process share the harness's.
		o.TraceCache = s.tc
		rec := s.rec.Load()
		if rec == nil {
			return harness.RunResultContext(ctx, r.Experiment, o)
		}
		t0 := time.Now()
		res, err := harness.RunResultContext(ctx, r.Experiment, o)
		rec.record(telemetry.FromContext(ctx).TraceID, "engine.run", t0, time.Now(),
			r.Experiment+"/"+strings.Join(r.Apps, ","))
		return res, err
	}
	var members []cluster.MemberSpec
	for i := 0; i < 2; i++ {
		// gspcd's defaults: a 128-entry LRU result cache, every job traced.
		// Finished-job retention is the exception: every traced job keeps
		// a telemetry.DefaultMaxSpans span buffer (~600 KB), so gspcd's
		// 1024 retained jobs per engine would grow the heap by ~1 GB over
		// a run. keepFinished caps it where the heap levels off early.
		eng, err := service.NewEngine(service.Config{
			CacheEntries: 128, CachePolicy: "lru", TraceEvery: 1, Run: run, Logger: quiet,
			KeepFinished: keepFinished,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, eng)
		srv := service.NewServer(eng)
		srv.NodeName = fmt.Sprintf("gspc-%d", i+1)
		hs, url, err := listen(s.wrapMember(srv))
		if err != nil {
			s.close()
			return nil, err
		}
		s.members = append(s.members, hs)
		members = append(members, cluster.MemberSpec{Name: srv.NodeName, URL: url})
	}
	co, err := cluster.New(cluster.Config{Members: members, Logger: quiet})
	if err != nil {
		s.close()
		return nil, err
	}
	s.co = co
	co.Start()
	if s.coSrv, s.url, err = listen(s.wrap("coordinator", cluster.NewServer(co))); err != nil {
		s.close()
		return nil, err
	}
	for c := range s.clients {
		// One keep-alive connection per client.
		s.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	s.initTraffic()

	// Priming: compute every popular key once, then run the mix briefly
	// so connections, caches and the heap reach their steady state.
	for _, r := range s.popular {
		if o := s.send(0, r, "", nil); !o.ok {
			s.close()
			return nil, fmt.Errorf("priming %s/%s failed", r.exp, r.app)
		}
	}
	for _, o := range s.drive(time.Now().Add(500*time.Millisecond), nil) {
		if !o.ok {
			s.close()
			return nil, fmt.Errorf("warm-up request %s failed", o.label)
		}
	}
	return s, nil
}

// initTraffic derives the request generator from the seed: the clients'
// random streams and the popularity ranking of the popular keys.
func (s *serveMix) initTraffic() {
	seed := s.b.cfg.seed
	for c := range s.rngs {
		s.rngs[c] = rand.New(rand.NewSource(seed*serveClients + int64(c)))
	}
	s.pairs.waiting = map[int]chan struct{}{}
	ranks := rand.New(rand.NewSource(seed)).Perm(len(apps()))
	var w float64
	for r := 0; r < len(serveExps)*len(ranks); r++ {
		// Rank r takes the r/4-th app of the seeded order and rotates the
		// figure, so each figure holds every fourth rank.
		app := apps()[ranks[r/len(serveExps)]]
		exp := serveExps[(r+r/len(serveExps))%len(serveExps)]
		s.popular = append(s.popular, s.b.newServeReq(exp, app, serveCapacity, false))
		w += 1 / math.Pow(float64(r+1), zipfS)
		s.cum = append(s.cum, w)
	}
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// wrap records a span around a handler while a recorder is set. Only
// the traced run installs wrappers (see setupServeMix's callers).
func (s *serveMix) wrap(name string, h http.Handler) http.Handler {
	if !s.b.cfg.trace {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		id := r.Header.Get(service.HeaderTraceID)
		if rec == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.record(id, name, t0, time.Now(), w.Header().Get("X-Gspc-Cache"))
	})
}

// wrapMember names a member's spans by what the request asked for: a
// run, or a replica install from the coordinator.
func (s *serveMix) wrapMember(h http.Handler) http.Handler {
	if !s.b.cfg.trace {
		return h
	}
	runs, replicas := s.wrap("member.run", h), s.wrap("member.replica", h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			replicas.ServeHTTP(w, r)
			return
		}
		runs.ServeHTTP(w, r)
	})
}

// request draws client c's i-th request.
func (s *serveMix) request(c, i int) (serveReq, int) {
	rng := s.rngs[c]
	// Offsets below half the span go to each client's own first-time
	// keys (even for client 0, odd for client 1), the upper half to
	// paired keys, so every first-time key of a run is distinct.
	half := int(missOffsetSpan/missOffsetStep) / 2
	if i%pairEvery == pairEvery-1 {
		slot := i / pairEvery
		pr := rand.New(rand.NewSource(s.b.cfg.seed<<20 + int64(slot)))
		return s.freshReq(pr, half+slot%half), slot
	}
	if rng.Float64() < missShare {
		n := (serveClients*s.solo[c] + c) % half
		s.solo[c]++
		return s.freshReq(rng, n), -1
	}
	u := rng.Float64() * s.cum[len(s.cum)-1]
	lo := 0
	for s.cum[lo] < u {
		lo++
	}
	return s.popular[lo], -1
}

func (s *serveMix) freshReq(rng *rand.Rand, n int) serveReq {
	exp := missExps[rng.Intn(len(missExps))]
	app := apps()[rng.Intn(len(apps()))]
	base := missBuckets[rng.Intn(len(missBuckets))]
	return s.b.newServeReq(exp, app, base+float64(n)*missOffsetStep, true)
}

// pairing lets both clients send a paired first-time key together.
type pairing struct {
	mu      sync.Mutex
	waiting map[int]chan struct{}
}

// meet blocks until the other client reaches the same slot, or until the
// deadline, in which case it withdraws from the slot and reports false.
func (p *pairing) meet(slot int, deadline time.Time) bool {
	p.mu.Lock()
	if ch, ok := p.waiting[slot]; ok {
		delete(p.waiting, slot)
		p.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	p.waiting[slot] = ch
	p.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.waiting[slot] != ch {
		return true // the other client arrived as the timer fired
	}
	delete(p.waiting, slot)
	return false
}

func (s *serveMix) drive(deadline time.Time, rec *recorder) []op {
	st0 := s.tc.Stats()
	s.rec.Store(rec)
	defer s.rec.Store(nil)
	var mu sync.Mutex
	var ops []op
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []op
			for time.Now().Before(deadline) {
				i := s.next[c]
				s.next[c]++
				r, slot := s.request(c, i)
				if slot >= 0 && !s.pairs.meet(slot, deadline) {
					// Unpaired at the deadline: the next drive sends this
					// slot again, paired. Drawing a paired slot takes
					// nothing from the client's random stream.
					s.next[c] = i
					break
				}
				trace := ""
				if rec != nil {
					trace = fmt.Sprintf("c%d-%d", c, i)
				}
				mine = append(mine, s.send(c, r, trace, rec))
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	s.last = countsSince(st0, s.tc.Stats())
	return ops
}

// send posts one request through the coordinator and checks the reply.
func (s *serveMix) send(c int, r serveReq, trace string, rec *recorder) op {
	o := op{class: classOther, label: r.exp + "/" + r.app}
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/runs", bytes.NewReader(r.body))
	if err != nil {
		s.b.opFailed("%s: %v", o.label, err)
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(service.HeaderTraceID, trace)
	}
	start := time.Now()
	resp, err := s.clients[c].Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	o.ms = float64(end.Sub(start).Nanoseconds()) / 1e6
	if err != nil {
		s.b.opFailed("%s: %v", o.label, err)
		return o
	}
	// The coordinator coalesces concurrent identical submits, hits
	// included; a coalesced follower replays the leader's reply and its
	// cache header. Hits are hits either way; a coalesced follower of a
	// miss waited on someone else's simulation, so it joins neither class.
	coalesced := resp.Header.Get("X-Gspc-Cluster-Coalesced") != ""
	switch resp.Header.Get("X-Gspc-Cache") {
	case "hit":
		o.class = classLight
	case "miss":
		if !coalesced {
			o.class = classHeavy
			o.simAccesses = replays[r.exp] * int64(s.b.want.length(r.app, serveScale))
		}
	}
	spanLabel := o.class
	if coalesced {
		spanLabel += "/coalesced"
	}
	rec.record(trace, "client", start, end, spanLabel)
	if resp.StatusCode != http.StatusOK {
		s.b.opFailed("%s: status %d: %s", o.label, resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	if v, ok := s.verified.Load(string(r.body)); ok && bytes.Equal(v.([]byte), body) {
		o.ok = true
		return o
	}
	var reply struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || rawDigest(reply.Table) != r.want {
		s.b.opFailed("%s: table differs from the pinned one", o.label)
		return o
	}
	if !r.fresh {
		s.verified.Store(string(r.body), body)
	}
	o.ok = true
	return o
}

func (s *serveMix) probes() probeSpec { return suiteSpec(serveScale, serveCapacity) }

func (s *serveMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	// The clients are done, so no request is in flight. Coordinator
	// first: Close waits for its in-flight replications, which need the
	// members up. Servers close rather than shut down: Shutdown waits five
	// seconds for any connection the coordinator's transport dialled but
	// never used.
	if s.coSrv != nil {
		s.coSrv.Close()
	}
	if s.co != nil {
		s.co.Close()
	}
	for _, srv := range s.members {
		srv.Close()
	}
	for _, e := range s.engines {
		e.Shutdown(ctx)
	}
}
