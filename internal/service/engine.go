package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gspc/internal/durable"
	"gspc/internal/harness"
	"gspc/internal/membudget"
	"gspc/internal/telemetry"
)

// Engine errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull signals backpressure: the job queue is at capacity
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown is returned for submissions after Shutdown began
	// (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Config sizes an Engine. The zero value gets sensible defaults.
type Config struct {
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail with ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the number of concurrent experiment runners. Default
	// GOMAXPROCS.
	Workers int
	// CacheEntries is the result cache capacity (0 disables caching,
	// < 0 means default). Default 128.
	CacheEntries int
	// CachePolicy selects the eviction policy backing the result cache:
	// one of CachePolicyNames. Default "lru".
	CachePolicy string
	// Run overrides the experiment runner (tests, fault injection). The
	// context carries the per-job deadline and must be honored for
	// deadlines to actually stop work. Default: the harness with context
	// threading (harness.RunResultContext).
	Run func(ctx context.Context, r Request) (*harness.Result, error)
	// KeepFinished bounds how many finished jobs stay queryable via
	// JobStatus. Default 1024.
	KeepFinished int

	// JobTimeout bounds one experiment run; a request's TimeoutMS can
	// only tighten it, never extend it. 0 = no engine-wide deadline.
	JobTimeout time.Duration
	// MaxRetries is how many times a retryable (transient) failure is
	// re-attempted before the job fails. Deterministic failures —
	// invalid requests, timeouts, panics — are never retried.
	// Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the wait before the first retry; attempt k waits
	// RetryBackoff×2^k with ±50% jitter, capped at maxRetryBackoff and
	// aborted early by shutdown or the job deadline. Default 50ms.
	RetryBackoff time.Duration
	// BreakerThreshold opens an experiment's circuit breaker after this
	// many consecutive failures; while open, submissions for that
	// experiment fast-fail with CircuitOpenError instead of burning a
	// worker. Default 5; negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fast-fails before
	// letting a single probe through (half-open). Default 30s.
	BreakerCooldown time.Duration
	// ServeStale degrades instead of failing: while an experiment's
	// breaker is open, requests for it are answered with the most recent
	// successful result of that experiment (any parameters), flagged
	// stale, rather than rejected.
	ServeStale bool
	// MaxWork is the admission ceiling in frame-equivalents of
	// simulation per request (selected frames × scale²; the full
	// 52-frame suite at the default 0.25 scale is 3.25). Requests above
	// it are rejected with 400 up front instead of burning a worker for
	// minutes. 0 = unlimited.
	MaxWork float64
	// EscalateSampled upgrades sampled answers in the background: when a
	// sampled-fidelity job completes, its exact twin (same request,
	// fidelity "exact") is submitted asynchronously, and once that
	// finishes its result replaces the sampled entry in the cache under
	// the sampled key — callers get the interactive answer now and exact
	// numbers on the next identical request. If the exact twin is
	// already cached the replacement is immediate.
	EscalateSampled bool
	// ReadyHighWater is the queued-job count at which /readyz starts
	// reporting unready (load shedding hint for balancers); admission
	// itself still accepts work until QueueDepth. Default QueueDepth.
	ReadyHighWater int
	// ExposeStacks includes recovered panic stacks in JobStatus wire
	// responses (GET /v1/runs/{id}). Off by default: stacks disclose
	// internal code paths, so they are only logged server-side.
	ExposeStacks bool
	// Logger sinks the engine's structured operational log (job
	// lifecycle failures, recovered panic stacks, journal degradation),
	// with records correlated by run_id and trace_id attributes.
	// Default slog.Default(); tests may pass a discarding handler.
	Logger *slog.Logger

	// TraceEvery samples per-run span tracing: every Nth submitted job
	// is traced (1 = every job, the default when 0). Negative disables
	// tracing entirely. Untraced jobs pay only nil checks at every
	// instrumentation site.
	TraceEvery int
	// TraceMaxSpans bounds one traced job's span storage
	// (0 = telemetry.DefaultMaxSpans). Spans beyond it are counted as
	// dropped, never reallocated.
	TraceMaxSpans int
	// FlightEvents sizes the flight recorder — the ring of recent job
	// lifecycle events served at /debugz (0 = telemetry.DefaultFlightEvents).
	FlightEvents int

	// Governor, when set, is the process-wide memory governor the engine
	// consults on admission and accounts its memory into: the result
	// cache and journal register as byte sources, every admitted job
	// reserves its estimated in-flight trace footprint, and the
	// governor's degradation ladder gates new work (downgrade to sampled
	// fidelity, stale-only, shed). Nil disables memory governance.
	Governor *membudget.Governor
	// MaxRequestBytes rejects requests whose estimated in-flight trace
	// footprint (EstimateRequestBytes) exceeds it, with a 400 — the
	// byte-space sibling of the frame-equivalent MaxWork ceiling.
	// 0 = unlimited.
	MaxRequestBytes int64
	// SLO, when set, receives every completed job's latency keyed by
	// experiment, for p50/p99-target tracking and error-budget burn
	// accounting surfaced in /metricsz and /metrics. Nil disables it.
	SLO *telemetry.SLOTracker

	// DataDir, when non-empty, makes the engine crash-safe: job
	// lifecycle transitions are appended to a write-ahead journal under
	// this directory, the result cache and serve-stale table are
	// snapshotted on compaction, and a new engine recovers all of it on
	// boot — completed runs stay queryable by their original ids,
	// queued jobs are resubmitted, and jobs that were running mid-crash
	// are marked failed-retryable. Empty disables persistence.
	DataDir string
	// Fsync syncs the journal after every append. Off, a crash can
	// lose the most recent transitions (never corrupt the journal).
	Fsync bool
	// SnapshotEvery compacts the journal into a snapshot after this
	// many appends (0 = durable's default, 256; negative disables
	// automatic compaction).
	SnapshotEvery int
	// DurableFS overrides the persistence filesystem (fault
	// injection). Default: the real disk.
	DurableFS durable.FS
}

// maxRetryBackoff caps the exponential retry backoff so large MaxRetries
// values cannot overflow the doubling into a zero or negative wait.
const maxRetryBackoff = 30 * time.Second

// jobLatencyBuckets are the /metrics histogram bounds for completed-job
// duration, in seconds: experiments span milliseconds (cache-warm tiny
// scales) to minutes (full suite), so the buckets run 25ms–300s.
var jobLatencyBuckets = []float64{
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 128
	}
	if c.CachePolicy == "" {
		c.CachePolicy = "lru"
	}
	if c.Run == nil {
		c.Run = func(ctx context.Context, r Request) (*harness.Result, error) {
			return harness.RunResultContext(ctx, r.Experiment, r.Options())
		}
	}
	if c.KeepFinished <= 0 {
		c.KeepFinished = 1024
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 5
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.ReadyHighWater <= 0 || c.ReadyHighWater > c.QueueDepth {
		c.ReadyHighWater = c.QueueDepth
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceEvery == 0 {
		c.TraceEvery = 1
	}
	return c
}

// Job tracks one queued computation. Fields other than the immutable
// ID/Req/Key are guarded by the engine mutex; readers use JobStatus.
type Job struct {
	ID  string
	Req Request
	Key string

	// Downgraded marks a job whose request was forced from exact to
	// sampled fidelity by the memory governor's ladder at admission.
	// Immutable after creation, like ID/Req/Key.
	Downgraded bool

	done chan struct{}

	// reserved is the in-flight byte estimate held against the memory
	// governor until the job reaches a terminal state; releaseLocked
	// zeroes it, making the release idempotent across exit paths.
	reserved int64

	seq int64 // numeric id (journal sequence; recovery restores the counter past it)

	run *telemetry.Run // per-run span trace; nil when sampled out

	status            Status
	enqueued, started time.Time
	finished          time.Time
	result            *cached
	err               error
	coalesced         int64
	attempts          int
	timeout           time.Duration // effective run deadline (0 = none)
	waiters           int           // Do callers blocked on done
	abandonable       bool          // every interested party is a waiting Do caller
	probe             bool          // the job is its breaker's half-open probe
	// alsoCache lists extra cache keys this job's result is installed
	// under when it completes — the sampled keys an exact escalation job
	// upgrades.
	alsoCache []string
}

// JobStatus is the queryable snapshot of a job (GET /v1/runs/{id}).
type JobStatus struct {
	ID            string          `json:"id"`
	Experiment    string          `json:"experiment"`
	Key           string          `json:"key"`
	TraceID       string          `json:"trace_id,omitempty"`
	Status        Status          `json:"status"`
	Enqueued      time.Time       `json:"enqueued"`
	Started       *time.Time      `json:"started,omitempty"`
	Finished      *time.Time      `json:"finished,omitempty"`
	DurationMs    float64         `json:"duration_ms,omitempty"`
	Coalesced     int64           `json:"coalesced,omitempty"`
	Attempts      int             `json:"attempts,omitempty"`
	Error         string          `json:"error,omitempty"`
	ErrorCategory Category        `json:"error_category,omitempty"`
	ErrorStack    string          `json:"error_stack,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
}

// Reply is the outcome of a synchronous request: the exact result bytes
// (identical across cache replays) plus serving metadata that travels in
// headers, never in the body.
type Reply struct {
	Body      []byte
	RunID     string
	Cached    bool
	Coalesced bool
	// Stale marks a degraded answer: the experiment's breaker was open
	// and the body is its most recent successful result rather than a
	// run of the exact requested parameters.
	Stale bool
	// Downgraded marks an answer served at sampled fidelity because the
	// memory governor forced the downgrade on this request at admission
	// (surfaced as the X-Gspc-Fidelity-Downgraded header).
	Downgraded bool
	Duration   time.Duration
}

// Engine owns the queue, the worker pool, the coalescing table, and the
// policy-backed result cache.
type Engine struct {
	cfg   Config
	cache *resultCache
	queue chan *Job
	stop  chan struct{} // closed when Shutdown begins; aborts retry backoffs

	mu       sync.Mutex
	closing  bool
	nextID   int64
	jobs     map[string]*Job
	order    []string // finished job ids, oldest first, for pruning
	inflight map[string]*Job
	breakers map[string]*breaker // per-experiment circuit breakers
	lastGood map[string]*cached  // last successful result per experiment (serve-stale)

	wg    sync.WaitGroup
	start time.Time

	// Observability: the flight recorder ring (/debugz), the per-engine
	// stage-clock scope threaded into every run context, and the job
	// latency histogram backing /metrics. traceSeq (guarded by mu)
	// drives TraceEvery sampling.
	flight   *telemetry.Flight
	stages   *harness.StageSet
	latHist  *telemetry.Histogram
	traceSeq int64

	// store persists job lifecycle + results when Config.DataDir is
	// set; nil otherwise. recovery tallies what boot restored.
	store    *durable.Store
	recovery recoveryStats

	// counters, guarded by mu
	requests, rejected, coalesced int64
	completed, failed             int64
	cancelled, retries, panics    int64
	timeouts, breakerTrips        int64
	breakerFastFails, staleServed int64
	journalErrors                 int64
	replicasInstalled             int64
	sampledJobs                   int64
	escalations, escalationHits   int64
	lastSampledErr                float64 // EstRelErr of the latest sampled job
	// Memory-ladder serving counters: requests shed outright, exact
	// requests downgraded to sampled fidelity, stale answers served
	// because of the stale-only rung (disjoint from staleServed, the
	// breaker-driven stale counter), and background escalations skipped
	// under pressure.
	memShed, memDowngrades        int64
	memStaleServed, memEscSkipped int64
	lat                           latencies
}

// NewEngine builds and starts an engine; callers must Shutdown it.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	cache, err := newResultCache(cfg.CacheEntries, cfg.CachePolicy)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		cache:    cache,
		queue:    make(chan *Job, cfg.QueueDepth),
		stop:     make(chan struct{}),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
		breakers: map[string]*breaker{},
		lastGood: map[string]*cached{},
		start:    time.Now(),
		flight:   telemetry.NewFlight(cfg.FlightEvents),
		stages:   harness.NewStageSet(),
		latHist:  telemetry.NewHistogram(jobLatencyBuckets...),
	}
	if cfg.DataDir != "" {
		// Recovery must finish before any worker can observe (or race
		// with) the restored queue.
		if err := e.openDurable(); err != nil {
			return nil, err
		}
	}
	if g := cfg.Governor; g != nil {
		// Account this engine's memory into the governor. Registration is
		// idempotent by name, so rebuilding an engine over the same
		// governor (recovery, tests) re-points the gauges.
		g.RegisterSource("result-cache", e.cache.Bytes)
		if e.store != nil {
			g.RegisterSource("journal", func() int64 { return e.store.Stats().JournalBytes })
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Do serves one request synchronously: a cache hit returns immediately,
// otherwise the request is enqueued (coalescing onto an identical
// in-flight job if one exists) and Do blocks until the job finishes or
// ctx is done. A running job keeps running if ctx expires first — a
// later identical request will find its result in the cache — but a job
// still queued whose every waiting caller has left is cancelled in
// place instead of burning a worker for nobody.
func (e *Engine) Do(ctx context.Context, req Request) (*Reply, error) {
	return e.DoTraced(ctx, req, TraceHint{})
}

// TraceHint carries a distributed-trace identity inherited from an
// upstream hop (the gspc-cluster coordinator). When TraceID is set and
// tracing is not disabled, the job adopts it — and records ParentSpan —
// instead of minting a fresh id, so the coordinator can stitch the
// member's spans under its own forward attempt. A zero TraceHint is
// exactly the untraced-upstream behavior.
type TraceHint struct {
	TraceID    string
	ParentSpan string
}

// DoTraced is Do with an inherited trace identity.
func (e *Engine) DoTraced(ctx context.Context, req Request, hint TraceHint) (*Reply, error) {
	job, rep, downgraded, err := e.submit(req, true, hint)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		rep.Downgraded = downgraded
		return rep, nil
	}
	select {
	case <-job.done:
		rep, err := e.replyFor(job)
		if rep != nil {
			rep.Downgraded = downgraded
		}
		return rep, err
	case <-ctx.Done():
		e.abandon(job)
		return nil, ctx.Err()
	}
}

// Submit validates and enqueues a request. Exactly one of the returns is
// meaningful: a Reply for a cache hit (no job), otherwise the queued or
// coalesced-onto Job whose done channel the caller may wait on. Jobs
// submitted through Submit are never auto-cancelled: some poller is
// assumed to want the result. A governor-forced fidelity downgrade shows
// on the Reply (cache hit) or the Job (Downgraded, when this submission
// created it).
func (e *Engine) Submit(req Request) (*Job, *Reply, error) {
	return e.SubmitTraced(req, TraceHint{})
}

// SubmitTraced is Submit with an inherited trace identity.
func (e *Engine) SubmitTraced(req Request, hint TraceHint) (*Job, *Reply, error) {
	job, rep, downgraded, err := e.submit(req, false, hint)
	if rep != nil {
		rep.Downgraded = downgraded
	}
	return job, rep, err
}

// submit runs admission: normalization, work/byte ceilings, the memory
// ladder, cache lookup, coalescing, backpressure, and the breaker, in
// that order. The returned bool reports whether THIS submission was
// downgraded to sampled fidelity by the ladder (a coalesced caller may
// land on a job some earlier downgraded submission created).
func (e *Engine) submit(req Request, sync bool, hint TraceHint) (*Job, *Reply, bool, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, nil, false, err
	}
	if err := e.admitWork(req); err != nil {
		return nil, nil, false, err
	}
	key := req.Key()
	rung := membudget.RungHealthy
	if e.cfg.Governor != nil {
		rung = e.cfg.Governor.Rung()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.requests++
	if e.closing {
		return nil, nil, false, ErrShuttingDown
	}
	if v, ok := e.cache.Get(key); ok {
		// An exact-key cache hit costs no new memory; serve it at any rung.
		return nil, &Reply{Body: v.body, RunID: v.runID, Cached: true}, false, nil
	}
	var downgraded bool
	switch {
	case rung >= membudget.RungShed:
		e.memShed++
		e.flight.Add(telemetry.Event{Type: "mem-shed", Detail: req.Experiment})
		return nil, nil, false, &MemoryPressureError{
			Rung: rung.String(), RetryAfter: e.cfg.Governor.RetryAfter()}
	case rung >= membudget.RungStaleOnly:
		// Serving a remembered result allocates nothing; running does.
		if v, ok := e.lastGood[req.Experiment]; ok {
			e.memStaleServed++
			e.flight.Add(telemetry.Event{Type: "mem-stale-served", Detail: req.Experiment})
			return nil, &Reply{Body: v.body, RunID: v.runID, Cached: true, Stale: true}, false, nil
		}
		return nil, nil, false, &MemoryPressureError{
			Rung: rung.String(), RetryAfter: e.cfg.Governor.RetryAfter(), StaleOnly: true}
	case rung >= membudget.RungSampled && req.Fidelity != harness.FidelitySampled:
		// Force sampled fidelity: an eighth of the work and memory for an
		// answer with an error bound attached. The downgraded key may hit
		// the cache or coalesce onto an earlier downgraded admission.
		req = req.SampledTwin()
		key = req.Key()
		downgraded = true
		e.memDowngrades++
		e.flight.Add(telemetry.Event{Type: "mem-downgrade", Detail: req.Experiment})
		if v, ok := e.cache.Get(key); ok {
			return nil, &Reply{Body: v.body, RunID: v.runID, Cached: true}, true, nil
		}
	}
	if job, ok := e.inflight[key]; ok {
		job.coalesced++
		e.coalesced++
		if sync {
			job.waiters++
		} else {
			// An async poller now depends on this job: it must run even if
			// every synchronous waiter leaves.
			job.abandonable = false
		}
		e.flight.Add(telemetry.Event{Type: "coalesced", RunID: job.ID,
			TraceID: traceID(job.run), Detail: req.Experiment})
		return job, nil, downgraded, nil
	}
	// Backpressure first: a full queue rejects before the breaker is
	// consulted, so a probe slot is never consumed by a doomed submit.
	// Only submitters (all holding e.mu) send on the queue, so this
	// capacity check guarantees the send below cannot block.
	if len(e.queue) == cap(e.queue) {
		e.rejected++
		e.flight.Add(telemetry.Event{Type: "rejected", Detail: req.Experiment + ": queue full"})
		return nil, nil, false, ErrQueueFull
	}
	var probe bool
	if e.cfg.BreakerThreshold > 0 {
		b := e.breakerFor(req.Experiment)
		ok, retryAfter, pr := b.admit(time.Now(), e.cfg.BreakerCooldown)
		probe = pr
		if !ok {
			if e.cfg.ServeStale {
				if v, ok := e.lastGood[req.Experiment]; ok {
					e.staleServed++
					e.flight.Add(telemetry.Event{Type: "stale-served", Detail: req.Experiment})
					return nil, &Reply{Body: v.body, RunID: v.runID, Cached: true, Stale: true}, downgraded, nil
				}
			}
			e.breakerFastFails++
			e.flight.Add(telemetry.Event{Type: "breaker-fastfail", Detail: req.Experiment})
			return nil, nil, false, &CircuitOpenError{Experiment: req.Experiment, RetryAfter: retryAfter}
		}
	}
	e.nextID++
	job := &Job{
		ID:          fmt.Sprintf("run-%06d", e.nextID),
		Req:         req,
		Key:         key,
		Downgraded:  downgraded,
		seq:         e.nextID,
		done:        make(chan struct{}),
		status:      StatusQueued,
		enqueued:    time.Now(),
		timeout:     e.effectiveTimeout(req),
		abandonable: sync,
		probe:       probe,
	}
	if g := e.cfg.Governor; g != nil {
		// Reserve the estimated in-flight footprint now, before the
		// allocations land: a burst of admissions degrades the ladder
		// ahead of the heap showing it.
		job.reserved = EstimateRequestBytes(req)
		g.Reserve(job.reserved)
	}
	if e.cfg.TraceEvery > 0 {
		if hint.TraceID != "" {
			// An upstream hop already traced this request: adopt its id
			// regardless of the sampling phase so the distributed trace is
			// never cut at this hop, and remember which remote span caused
			// the job for the coordinator's stitcher.
			job.run = telemetry.NewRun(hint.TraceID, e.cfg.TraceMaxSpans)
			job.run.ParentSpan = hint.ParentSpan
		} else if e.traceSeq%int64(e.cfg.TraceEvery) == 0 {
			job.run = telemetry.NewRun(telemetry.NewTraceID(), e.cfg.TraceMaxSpans)
		}
		e.traceSeq++
	}
	if sync {
		job.waiters = 1
	}
	e.queue <- job
	e.jobs[job.ID] = job
	e.inflight[key] = job
	e.journalSubmitLocked(job)
	e.flight.Add(telemetry.Event{Type: "submit", RunID: job.ID,
		TraceID: traceID(job.run), Detail: req.Experiment})
	return job, nil, downgraded, nil
}

// releaseLocked returns a job's reserved in-flight bytes to the memory
// governor. Zeroing reserved makes it idempotent across the terminal
// paths (worker done/failed, cancelled-skip, abandon). Callers hold e.mu.
func (e *Engine) releaseLocked(job *Job) {
	if job.reserved > 0 && e.cfg.Governor != nil {
		e.cfg.Governor.Release(job.reserved)
	}
	job.reserved = 0
}

// traceID extracts the trace id of a possibly-nil run.
func traceID(r *telemetry.Run) string {
	if r == nil {
		return ""
	}
	return r.TraceID
}

// admitWork rejects requests whose selected geometry implies more
// simulation than the configured ceiling, before any worker is
// committed: a pathological sweep gets a 400 in microseconds, not a
// timeout after minutes.
func (e *Engine) admitWork(req Request) error {
	if e.cfg.MaxWork > 0 {
		work := float64(len(req.Options().Jobs())) * req.Scale * req.Scale
		formula := "frames × scale²"
		if req.Fidelity == harness.FidelitySampled {
			// A sampled run synthesizes two small fixed-scale profiles plus a
			// ~6% prefix and replays a ~1-in-16 set subset; measured end to
			// end it costs well under an eighth of the exact run at the
			// scales where the ceiling matters. The rejection message names
			// the discounted figure and formula so the "lower scale, frames,
			// or apps" hint matches the number admission actually compared.
			work /= 8
			formula = "frames × scale² ÷ 8 sampled-fidelity discount"
		}
		if work > e.cfg.MaxWork {
			return &BadRequestError{Reason: fmt.Sprintf(
				"request implies %.2f frame-equivalents of simulation (%s), above the admission ceiling %.2f; lower scale, frames, or apps",
				work, formula, e.cfg.MaxWork)}
		}
	}
	if e.cfg.MaxRequestBytes > 0 {
		if b := EstimateRequestBytes(req); b > e.cfg.MaxRequestBytes {
			return &BadRequestError{Reason: fmt.Sprintf(
				"request implies an estimated %.1f MiB of in-flight trace memory, above the per-request ceiling %.1f MiB; lower scale, frames, or apps",
				float64(b)/(1<<20), float64(e.cfg.MaxRequestBytes)/(1<<20))}
		}
	}
	return nil
}

// effectiveTimeout resolves the run deadline: the engine-wide JobTimeout
// tightened (never loosened) by the request's TimeoutMS.
func (e *Engine) effectiveTimeout(req Request) time.Duration {
	t := e.cfg.JobTimeout
	if req.TimeoutMS > 0 {
		rt := time.Duration(req.TimeoutMS) * time.Millisecond
		if t == 0 || rt < t {
			t = rt
		}
	}
	return t
}

// breakerFor returns (allocating on first use) the experiment's breaker.
// Callers hold e.mu.
func (e *Engine) breakerFor(experiment string) *breaker {
	b, ok := e.breakers[experiment]
	if !ok {
		b = &breaker{}
		e.breakers[experiment] = b
	}
	return b
}

// unprobeLocked gives a cancelled probe job's half-open slot back to its
// breaker. Without this rollback an abandoned probe — the only admission
// while half-open — would never reach breaker.record, leaving probing
// stuck true and the breaker wedged open until restart. Callers hold
// e.mu; clearing job.probe makes the rollback idempotent across the
// abandon and worker-skip paths.
func (e *Engine) unprobeLocked(job *Job) {
	if !job.probe {
		return
	}
	job.probe = false
	e.breakerFor(job.Req.Experiment).unprobe()
}

// abandon is called by a Do caller whose ctx died while waiting. If the
// job is still queued and no one else wants it — no other waiter, no
// async poller — it is cancelled in place: the worker that eventually
// dequeues it skips the run entirely.
func (e *Engine) abandon(job *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if job.waiters > 0 {
		job.waiters--
	}
	if job.waiters > 0 || !job.abandonable || job.status != StatusQueued {
		return
	}
	job.status = StatusCancelled
	job.err = &Error{Category: CategoryCanceled,
		Message: "job cancelled: every waiting caller left before it started"}
	job.finished = time.Now()
	e.cancelled++
	e.flight.Add(telemetry.Event{Type: "cancelled", RunID: job.ID,
		TraceID: traceID(job.run), Detail: "abandoned while queued"})
	e.journalFinishLocked(job)
	e.releaseLocked(job)
	e.unprobeLocked(job)
	if e.inflight[job.Key] == job {
		// Unblock identical future requests immediately: they start a
		// fresh job rather than coalescing onto this dead one.
		delete(e.inflight, job.Key)
	}
}

// replyFor builds the Reply for a finished job.
func (e *Engine) replyFor(job *Job) (*Reply, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if job.err != nil {
		return nil, job.err
	}
	return &Reply{
		Body:      job.result.body,
		RunID:     job.ID,
		Coalesced: job.coalesced > 0,
		Duration:  job.finished.Sub(job.started),
	}, nil
}

// JobStatus returns the snapshot of a tracked job.
func (e *Engine) JobStatus(id string) (JobStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	s := JobStatus{
		ID:         job.ID,
		Experiment: job.Req.Experiment,
		Key:        job.Key,
		TraceID:    traceID(job.run),
		Status:     job.status,
		Enqueued:   job.enqueued,
		Coalesced:  job.coalesced,
		Attempts:   job.attempts,
	}
	if !job.started.IsZero() {
		t := job.started
		s.Started = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		s.Finished = &t
		s.DurationMs = float64(job.finished.Sub(job.started)) / float64(time.Millisecond)
	}
	if job.err != nil {
		s.Error = job.err.Error()
		var se *Error
		if errors.As(job.err, &se) {
			s.ErrorCategory = se.Category
			// Stacks disclose internal code paths; they stay server-side
			// (logged at recovery) unless exposure is explicitly enabled.
			if e.cfg.ExposeStacks {
				s.ErrorStack = se.Stack
			}
		}
	}
	if job.result != nil {
		s.Result = json.RawMessage(job.result.body)
	}
	return s, true
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.mu.Lock()
		if job.status == StatusCancelled {
			// Abandoned while queued: skip the run, finalize bookkeeping.
			e.releaseLocked(job)
			e.unprobeLocked(job)
			e.pruneLocked(job.ID)
			e.mu.Unlock()
			close(job.done)
			continue
		}
		job.status = StatusRunning
		job.started = time.Now()
		e.journalLocked(durable.Record{Type: durable.RecStart, ID: job.ID})
		e.flight.Add(telemetry.Event{Type: "start", RunID: job.ID,
			TraceID: traceID(job.run), Detail: job.Req.Experiment})
		e.mu.Unlock()
		// Queue wait is known exactly from the timestamps the engine
		// tracks anyway; record it as a span rather than re-measuring.
		job.run.Record("queue-wait", "engine", job.enqueued, job.started)

		res, attempts, serr := e.runWithRetry(job)
		var entry *cached
		if serr == nil {
			body, merr := json.Marshal(res)
			if merr != nil {
				serr = &Error{Category: CategoryInternal, Message: "encode result: " + merr.Error()}
			} else {
				entry = &cached{body: body, runID: job.ID}
			}
		}

		e.mu.Lock()
		job.finished = time.Now()
		job.attempts = attempts
		if serr != nil {
			job.status = StatusFailed
			job.err = serr
			e.failed++
			if serr.Category == CategoryTimeout {
				e.timeouts++
			}
			e.flight.Add(telemetry.Event{Type: "failed", RunID: job.ID, TraceID: traceID(job.run),
				Detail: fmt.Sprintf("%s: %s", job.Req.Experiment, serr.Category)})
			e.cfg.Logger.Warn("job failed",
				"run_id", job.ID, "trace_id", traceID(job.run),
				"experiment", job.Req.Experiment, "category", string(serr.Category),
				"attempts", attempts, "err", serr.Message)
		} else {
			job.status = StatusDone
			job.result = entry
			e.cache.Put(job.Key, entry)
			// An escalation job also upgrades the sampled entries that
			// asked for it.
			for _, k := range job.alsoCache {
				e.cache.Replace(k, entry)
				e.escalationHits++
				e.flight.Add(telemetry.Event{Type: "escalated", RunID: job.ID,
					TraceID: traceID(job.run), Detail: job.Req.Experiment + " -> " + k})
			}
			e.lastGood[job.Req.Experiment] = entry
			e.completed++
			if res.Sampling != nil {
				e.sampledJobs++
				e.lastSampledErr = res.Sampling.EstRelErr
			}
			d := job.finished.Sub(job.started)
			e.lat.record(d)
			e.latHist.Observe(d.Seconds())
			if e.cfg.SLO != nil {
				e.cfg.SLO.Observe(job.Req.Experiment, d)
			}
			e.flight.Add(telemetry.Event{Type: "done", RunID: job.ID, TraceID: traceID(job.run),
				Detail: fmt.Sprintf("%s in %s", job.Req.Experiment, d.Round(time.Millisecond))})
		}
		if e.cfg.BreakerThreshold > 0 {
			b := e.breakerFor(job.Req.Experiment)
			if b.record(serr == nil, time.Now(), e.cfg.BreakerThreshold, e.cfg.BreakerCooldown) {
				e.breakerTrips++
				e.flight.Add(telemetry.Event{Type: "breaker-trip", RunID: job.ID,
					TraceID: traceID(job.run), Detail: job.Req.Experiment})
			}
		}
		e.releaseLocked(job)
		e.journalFinishLocked(job)
		e.persistTraceLocked(job)
		e.maybeCompactLocked()
		if e.inflight[job.Key] == job {
			delete(e.inflight, job.Key)
		}
		e.pruneLocked(job.ID)
		e.mu.Unlock()
		close(job.done)
		// Escalation happens after done is closed: the sampled answer
		// reaches its waiters immediately, the exact twin runs behind
		// them. The twin is exact, so escalation cannot recurse.
		if serr == nil && e.cfg.EscalateSampled && job.Req.Fidelity == harness.FidelitySampled {
			if g := e.cfg.Governor; g != nil && g.Rung() >= membudget.RungSampled {
				// Under memory pressure the exact twin is exactly the work
				// the ladder is downgrading away; skip it. The next identical
				// request after recovery escalates normally.
				e.mu.Lock()
				e.memEscSkipped++
				e.flight.Add(telemetry.Event{Type: "escalate-skipped", RunID: job.ID,
					TraceID: traceID(job.run), Detail: job.Req.Experiment + ": memory pressure"})
				e.mu.Unlock()
			} else {
				e.escalateSampled(job)
			}
		}
	}
}

// escalateSampled submits the exact twin of a finished sampled job and
// arranges for its result to replace the sampled entry in the cache
// under the sampled key. Best-effort: backpressure or shutdown drops
// the escalation (the sampled answer, with its error estimate attached,
// simply remains cached).
func (e *Engine) escalateSampled(job *Job) {
	exj, rep, err := e.Submit(job.Req.ExactTwin())
	e.mu.Lock()
	defer e.mu.Unlock()
	e.escalations++
	switch {
	case err != nil:
		e.flight.Add(telemetry.Event{Type: "escalate-dropped", RunID: job.ID,
			Detail: job.Req.Experiment + ": " + err.Error()})
	case rep != nil:
		// The exact answer was already cached: upgrade immediately.
		e.cache.Replace(job.Key, &cached{body: rep.Body, runID: rep.RunID})
		e.escalationHits++
		e.flight.Add(telemetry.Event{Type: "escalated", RunID: rep.RunID,
			Detail: job.Req.Experiment + " -> " + job.Key})
	default:
		switch exj.status {
		case StatusDone:
			// Finished between Submit and this lock.
			if exj.result != nil {
				e.cache.Replace(job.Key, exj.result)
				e.escalationHits++
			}
		case StatusQueued, StatusRunning:
			exj.alsoCache = append(exj.alsoCache, job.Key)
		}
		e.flight.Add(telemetry.Event{Type: "escalate", RunID: exj.ID,
			TraceID: traceID(exj.run), Detail: job.Req.Experiment + " for " + job.ID})
	}
}

// runWithRetry executes the job under its deadline, retrying transient
// failures with exponential backoff and jitter. Backoffs abort early
// when the engine shuts down or the deadline expires. It returns the
// result, the number of attempts made, and the final typed error.
func (e *Engine) runWithRetry(job *Job) (*harness.Result, int, *Error) {
	// Thread the job's trace and the engine's stage-clock scope into the
	// run context: every instrumentation site below (harness, tracecache,
	// cachesim, gpu) reads them back out with one context lookup.
	ctx := harness.WithStages(context.Background(), e.stages)
	ctx = telemetry.NewContext(ctx, job.run)
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	attempts := 0
	for {
		attempts++
		sp := job.run.Start(fmt.Sprintf("attempt-%d", attempts), "engine",
			telemetry.String("experiment", job.Req.Experiment),
			telemetry.String("fidelity", job.Req.Fidelity))
		res, serr := e.runOnce(ctx, job)
		if serr == nil {
			sp.Attr(telemetry.String("outcome", "ok")).End()
			return res, attempts, nil
		}
		sp.Attr(telemetry.String("outcome", string(serr.Category))).End()
		if !serr.Retryable() || attempts > e.cfg.MaxRetries {
			return nil, attempts, serr
		}
		// Exponential backoff with ±50% jitter: base×2^k on attempt k+1.
		// The doubling stops at maxRetryBackoff — an unbounded shift
		// overflows int64 past ~40 attempts, and rand.Int63n panics on
		// the resulting non-positive duration.
		d := e.cfg.RetryBackoff
		for k := 1; k < attempts && d < maxRetryBackoff; k++ {
			d *= 2
		}
		if d > maxRetryBackoff {
			d = maxRetryBackoff
		}
		d = d/2 + time.Duration(rand.Int63n(int64(d)))
		e.mu.Lock()
		e.retries++
		e.flight.Add(telemetry.Event{Type: "retry", RunID: job.ID, TraceID: traceID(job.run),
			Detail: fmt.Sprintf("%s: attempt %d backing off %s", job.Req.Experiment, attempts, d.Round(time.Millisecond))})
		e.mu.Unlock()
		bsp := job.run.Start("retry-backoff", "engine", telemetry.Int("attempt", int64(attempts)))
		t := time.NewTimer(d)
		select {
		case <-t.C:
			bsp.End()
		case <-e.stop:
			t.Stop()
			bsp.End()
			return nil, attempts, serr
		case <-ctx.Done():
			t.Stop()
			bsp.End()
			return nil, attempts, classify(ctx.Err())
		}
	}
}

// runOnce executes the runner exactly once, converting a panic into a
// typed failure with the recovered stack — the worker goroutine and the
// process always survive a panicking experiment.
func (e *Engine) runOnce(ctx context.Context, job *Job) (res *harness.Result, serr *Error) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			e.panics++
			e.mu.Unlock()
			stack := string(debug.Stack())
			// A fault re-raised from another goroutine (trace synthesis's
			// render-cache stage) carries the stack that locates it.
			if o, ok := r.(interface{ PanicStack() []byte }); ok {
				stack = string(o.PanicStack()) + "\nre-raised:\n" + stack
			}
			e.cfg.Logger.Error("experiment panicked",
				"run_id", job.ID, "trace_id", traceID(job.run),
				"experiment", job.Req.Experiment, "panic", fmt.Sprint(r), "stack", stack)
			serr = &Error{
				Category: CategoryPanic,
				Message:  fmt.Sprintf("experiment %s panicked: %v", job.Req.Experiment, r),
				Stack:    stack,
			}
		}
	}()
	r, err := e.cfg.Run(ctx, job.Req)
	if err != nil {
		serr := classify(err)
		// The deadline outranks whatever error the runner surfaced while
		// dying: a run cut short by its timeout is a timeout.
		if serr.Category == CategoryInternal && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			serr = &Error{Category: CategoryTimeout, Message: err.Error(), cause: err}
		}
		return nil, serr
	}
	return r, nil
}

// pruneLocked records a finished job and drops the oldest finished jobs
// beyond the retention bound. Callers hold e.mu.
func (e *Engine) pruneLocked(id string) {
	e.order = append(e.order, id)
	for len(e.order) > e.cfg.KeepFinished {
		delete(e.jobs, e.order[0])
		e.removeTrace(e.order[0])
		e.order = e.order[1:]
	}
}

// ReadyInfo is the JSON body of GET /readyz: the ready/unready verdict
// plus the load signals a cluster coordinator needs to make routing
// decisions — queue pressure, open breakers, and whether the node is
// draining (about to leave) versus merely saturated (keep keys sticky,
// prefer replicas for reads).
type ReadyInfo struct {
	Status        string `json:"status"` // "ready" or "unready"
	Reason        string `json:"reason"`
	Draining      bool   `json:"draining"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Running       int    `json:"running"`
	BreakersOpen  int    `json:"breakers_open"`

	// Memory-governor state, present when the engine has one: the ladder
	// rung (name and numeric level), current pressure fraction, and the
	// byte limit. A coordinator reads these to route around a
	// memory-saturated member exactly as it does a queue-saturated one.
	MemRung       string  `json:"mem_rung,omitempty"`
	MemRungLevel  int     `json:"mem_rung_level,omitempty"`
	MemPressure   float64 `json:"mem_pressure,omitempty"`
	MemLimitBytes int64   `json:"mem_limit_bytes,omitempty"`
}

// ReadinessInfo reports whether the engine should receive new work and
// the load snapshot behind that verdict: draining, queue beyond the
// high-water mark, or every known experiment breaker open. Liveness is
// not readiness — a draining engine is alive but unready.
func (e *Engine) ReadinessInfo() (bool, ReadyInfo) {
	// Snapshot the governor before taking e.mu: its Snapshot reads the
	// byte-source gauges, and the result-cache gauge nests under e.mu
	// elsewhere — keep the order e.mu-free here.
	var mem *membudget.Snapshot
	if g := e.cfg.Governor; g != nil {
		s := g.Snapshot()
		mem = &s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	info := ReadyInfo{
		QueueDepth:    len(e.queue),
		QueueCapacity: e.cfg.QueueDepth,
		Draining:      e.closing,
	}
	if mem != nil {
		info.MemRung = mem.Rung
		info.MemRungLevel = mem.RungLevel
		info.MemPressure = mem.Pressure
		info.MemLimitBytes = mem.LimitBytes
	}
	for _, job := range e.jobs {
		if job.status == StatusRunning {
			info.Running++
		}
	}
	if e.cfg.BreakerThreshold > 0 {
		now := time.Now()
		for _, b := range e.breakers {
			if b.openNow(now) {
				info.BreakersOpen++
			}
		}
	}
	ready := true
	reason := "ready"
	switch {
	case e.closing:
		ready, reason = false, "draining"
	case mem != nil && mem.RungLevel >= int(membudget.RungStaleOnly):
		// Stale-only and shed refuse new simulations, so stop attracting
		// them; shrink and sampled still serve and stay ready.
		ready, reason = false, fmt.Sprintf("memory saturated (rung %s, pressure %.2f)", mem.Rung, mem.Pressure)
	case info.QueueDepth >= e.cfg.ReadyHighWater:
		ready, reason = false, fmt.Sprintf("queue saturated (%d/%d)", info.QueueDepth, e.cfg.QueueDepth)
	case len(e.breakers) > 0 && info.BreakersOpen == len(e.breakers):
		ready, reason = false, "all circuit breakers open"
	}
	info.Reason = reason
	info.Status = "ready"
	if !ready {
		info.Status = "unready"
	}
	return ready, info
}

// Readiness is ReadinessInfo reduced to the verdict and its reason.
func (e *Engine) Readiness() (ready bool, reason string) {
	ok, info := e.ReadinessInfo()
	return ok, info.Reason
}

// Cached answers key from the local result cache without submitting any
// work: the cluster coordinator's cache-only probes (and replica-backed
// degraded reads) use it to ask "do you already hold this result?"
// without committing the node to a simulation.
func (e *Engine) Cached(key string) (*Reply, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.cache.Get(key)
	if !ok {
		return nil, false
	}
	return &Reply{Body: v.body, RunID: v.runID, Cached: true}, true
}

// InstallReplica stores a result computed elsewhere in the cluster into
// the local result cache and serve-stale table under its cluster-wide
// key. The body must decode as a current-schema harness result — a
// replica from a build with a different result layout is rejected
// rather than poisoning the cache. Replicated entries ride the normal
// snapshot path, so they survive this node's restarts too.
func (e *Engine) InstallReplica(key, experiment, runID string, body []byte) error {
	if key == "" {
		return &BadRequestError{Reason: "replica key must not be empty"}
	}
	if _, err := harness.DecodeResult(body); err != nil {
		return &BadRequestError{Reason: "replica body: " + err.Error()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return ErrShuttingDown
	}
	entry := &cached{body: body, runID: runID}
	e.cache.Put(key, entry)
	if experiment != "" {
		e.lastGood[experiment] = entry
	}
	e.replicasInstalled++
	e.flight.Add(telemetry.Event{Type: "replica-installed", RunID: runID, Detail: experiment + " " + key})
	return nil
}

// Shutdown stops accepting work, drains queued and running jobs, and
// waits for the workers to exit or ctx to expire. In-flight retry
// backoffs are cut short: their jobs fail with the last observed error
// rather than holding the drain hostage.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closing {
		e.closing = true
		close(e.stop)
		close(e.queue)
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Clean drain: capture a final snapshot so the next boot
		// restores from one read instead of a long journal replay.
		e.closeDurable()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Unfinished counts jobs that have not reached a terminal state —
// still queued or running. gspcd reports it when the drain deadline
// expires so operators know how many jobs a hard exit abandons (a
// durable engine marks them failed-retryable at the next boot).
func (e *Engine) Unfinished() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, job := range e.jobs {
		if job.status == StatusQueued || job.status == StatusRunning {
			n++
		}
	}
	return n
}
