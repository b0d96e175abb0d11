package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/faultinject"
	"gspc/internal/harness"
	"gspc/internal/leakcheck"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/tracecache"
	"gspc/internal/workload"
)

// injectedRunner wraps a stub runner with a fault injector: the injector
// decides panic / transient error / delay / pass before the stub result
// is produced, exactly like faults inside a real experiment run.
func injectedRunner(inj faultinject.Injector, calls *int64) func(context.Context, Request) (*harness.Result, error) {
	return func(ctx context.Context, r Request) (*harness.Result, error) {
		if calls != nil {
			atomic.AddInt64(calls, 1)
		}
		if err := inj.Apply(ctx); err != nil {
			return nil, err
		}
		return &harness.Result{Experiment: r.Experiment, Title: "chaos stub", Scale: r.Scale}, nil
	}
}

// sleepyRunner simulates a long experiment that honors cancellation —
// the contract harness.RunResultContext provides.
func sleepyRunner(d time.Duration) func(context.Context, Request) (*harness.Result, error) {
	return func(ctx context.Context, r Request) (*harness.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
			return &harness.Result{Experiment: r.Experiment, Title: "slept"}, nil
		}
	}
}

func mustDo(t *testing.T, e *Engine, req Request) *Reply {
	t.Helper()
	rep, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do(%+v): %v", req, err)
	}
	return rep
}

func doErr(t *testing.T, e *Engine, req Request) *Error {
	t.Helper()
	_, err := e.Do(context.Background(), req)
	if err == nil {
		t.Fatalf("Do(%+v) succeeded, want typed failure", req)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("Do(%+v) error %v is not a *service.Error", req, err)
	}
	return se
}

// TestChaosPanicIsolation is the acceptance criterion for panic
// containment: an injected panic inside the runner becomes a
// StatusFailed job carrying the recovered stack, and the single worker
// survives to serve the very next request.
func TestChaosPanicIsolation(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Panic())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		Run: injectedRunner(inj, nil)})

	se := doErr(t, e, Request{Experiment: "fig1"})
	if se.Category != CategoryPanic {
		t.Errorf("category = %q, want panic", se.Category)
	}
	if se.Stack == "" {
		t.Error("panic failure carries no stack")
	}
	// Same worker, next request: the pool did not lose a goroutine.
	if rep := mustDo(t, e, Request{Experiment: "fig4"}); rep.Cached {
		t.Error("post-panic request unexpectedly cached")
	}
	m := e.Metrics()
	if m.Panics != 1 || m.Failed != 1 || m.Completed != 1 {
		t.Errorf("metrics = %+v, want 1 panic / 1 failed / 1 completed", m)
	}
}

// TestPanicStackExposureGated: the recovered stack stays out of the
// JobStatus wire snapshot unless ExposeStacks is set — internal code
// paths are not disclosed to HTTP clients by default.
func TestPanicStackExposureGated(t *testing.T) {
	for _, expose := range []bool{false, true} {
		inj := faultinject.NewSequence(faultinject.Panic())
		e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
			ExposeStacks: expose, Run: injectedRunner(inj, nil)})
		job, _, err := e.Submit(Request{Experiment: "fig1"})
		if err != nil {
			t.Fatal(err)
		}
		<-job.done
		st, ok := e.JobStatus(job.ID)
		if !ok || st.ErrorCategory != CategoryPanic {
			t.Fatalf("expose=%v: status %+v, want a panic failure", expose, st)
		}
		if expose && st.ErrorStack == "" {
			t.Error("ExposeStacks=true but JobStatus carries no stack")
		}
		if !expose && st.ErrorStack != "" {
			t.Error("ExposeStacks=false but JobStatus leaks the recovered stack")
		}
	}
}

// faultySink indexes out of range at its 1,000th record, as a faulty
// cache model would.
type faultySink struct {
	n    int
	none []int
}

func (s *faultySink) Emit(stream.Access) {
	s.n++
	if s.n == 1000 {
		_ = s.none[s.n]
	}
}

// TestPanicStackLocatesSynthesisFault: a runtime error in the render
// caches, which filter on a goroutine of their own during trace
// synthesis, fails the job with a stack that still names the faulting
// code, not only the synthesis call that re-raised it.
func TestPanicStackLocatesSynthesisFault(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		Run: func(context.Context, Request) (*harness.Result, error) {
			rc := rendercache.New(rendercache.DefaultConfig().Scaled(0.05), &faultySink{})
			pipeline.NewRenderer(rc).RenderFrame(workload.Suite()[0].Build(0.05))
			return nil, errors.New("render returned")
		}})
	se := doErr(t, e, Request{Experiment: "fig1"})
	if se.Category != CategoryPanic {
		t.Errorf("category = %q, want panic", se.Category)
	}
	if !strings.Contains(se.Stack, "faultySink).Emit") {
		t.Errorf("panic stack does not locate the fault:\n%s", se.Stack)
	}
}

// TestFanOutPanicFailsJob: a fault on the harness's fan-out workers —
// here the timing model indexing its per-stream tables with a frame's
// unknown stream kind, on both of Figure 15's workers — fails the job
// as a typed panic whose stack locates the fault, and the engine goes
// on serving.
func TestFanOutPanicFailsJob(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		Run: func(ctx context.Context, r Request) (*harness.Result, error) {
			if r.Experiment != "fig15" {
				return &harness.Result{Experiment: r.Experiment, Title: "fast"}, nil
			}
			const scale = 0.05
			cache := tracecache.New(1 << 20)
			o := harness.Options{Scale: scale, MaxFramesPerApp: 1, Apps: []string{"Dirt"},
				Workers: 2, TraceCache: cache, Context: ctx}
			poison := stream.Pack([]stream.Access{{Addr: 64}, {Addr: 128, Kind: 100}})
			for _, j := range o.Jobs() {
				key := tracecache.Key{Job: j.ID(), Scale: scale, Config: rendercache.DefaultConfig().Scaled(scale).Digest()}
				if _, err := cache.Get(ctx, key, func(context.Context) (*stream.Trace, error) { return poison, nil }); err != nil {
					return nil, err
				}
			}
			_, err := harness.RunFig15(o)
			return nil, err
		}})
	se := doErr(t, e, Request{Experiment: "fig15"})
	if se.Category != CategoryPanic {
		t.Errorf("category = %q, want panic", se.Category)
	}
	for _, fn := range []string{"gpu.SimulateSource", "harness.fanOut"} {
		if !strings.Contains(se.Stack, fn) {
			t.Errorf("panic stack does not name %s:\n%s", fn, se.Stack)
		}
	}
	if rep := mustDo(t, e, Request{Experiment: "fig4"}); !strings.Contains(string(rep.Body), `"fast"`) {
		t.Errorf("engine served %s after the panic", rep.Body)
	}
	if m := e.Metrics(); m.Panics != 1 {
		t.Errorf("metrics count %d panics, want 1", m.Panics)
	}
}

func TestChaosRetryTransientThenSuccess(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Fail(), faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8,
		MaxRetries: 2, RetryBackoff: time.Millisecond, Run: injectedRunner(inj, nil)})

	rep := mustDo(t, e, Request{Experiment: "fig1"})
	st, ok := e.JobStatus(rep.RunID)
	if !ok {
		t.Fatal("job vanished")
	}
	if st.Status != StatusDone || st.Attempts != 3 {
		t.Errorf("status = %s attempts = %d, want done after 3 attempts", st.Status, st.Attempts)
	}
	if m := e.Metrics(); m.Retries != 2 || m.Failed != 0 {
		t.Errorf("metrics = %+v, want 2 retries and no failure", m)
	}
}

func TestChaosRetryExhaustion(t *testing.T) {
	inj := faultinject.NewSequence(
		faultinject.Fail(), faultinject.Fail(), faultinject.Fail(), faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8,
		MaxRetries: 1, RetryBackoff: time.Millisecond, Run: injectedRunner(inj, nil)})

	se := doErr(t, e, Request{Experiment: "fig1"})
	if se.Category != CategoryInternal || !se.Retryable() {
		t.Errorf("exhausted retries: category %q retryable %v, want retryable internal", se.Category, se.Retryable())
	}
	var te *faultinject.TransientError
	if !errors.As(se, &te) {
		t.Errorf("typed error does not unwrap to the injected TransientError: %v", se)
	}
	if m := e.Metrics(); m.Retries != 1 || m.Failed != 1 {
		t.Errorf("metrics = %+v, want exactly 1 retry then failure", m)
	}
}

// TestChaosDeadlineTypedTimeout is the acceptance criterion for
// deadlines: a request with timeout_ms set on a long-running experiment
// comes back as a typed timeout within 2x the deadline, and the worker
// is reusable immediately.
func TestChaosDeadlineTypedTimeout(t *testing.T) {
	const deadline = 500 * time.Millisecond
	slow := sleepyRunner(time.Hour)
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8,
		Run: func(ctx context.Context, r Request) (*harness.Result, error) {
			if r.Experiment == "fig1" {
				return slow(ctx, r)
			}
			return &harness.Result{Experiment: r.Experiment, Title: "fast"}, nil
		}})

	start := time.Now()
	se := doErr(t, e, Request{Experiment: "fig1", TimeoutMS: int64(deadline / time.Millisecond)})
	elapsed := time.Since(start)
	if se.Category != CategoryTimeout {
		t.Errorf("category = %q, want timeout", se.Category)
	}
	if elapsed > 2*deadline {
		t.Errorf("timeout surfaced after %v, want within %v", elapsed, 2*deadline)
	}
	// Deadlines are never retried.
	if m := e.Metrics(); m.Timeouts != 1 || m.Retries != 0 {
		t.Errorf("metrics = %+v, want 1 timeout and 0 retries", m)
	}
	// The sole worker must be free right away for a fast job.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Do(context.Background(), Request{Experiment: "fig4", TimeoutMS: 2000}); err != nil {
			t.Errorf("post-timeout request: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker not reusable after a timed-out job")
	}
}

func TestChaosBreakerTripFastFailRecover(t *testing.T) {
	var calls int64
	inj := faultinject.NewSequence(faultinject.Fail(), faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
		Run: injectedRunner(inj, &calls)})

	doErr(t, e, Request{Experiment: "fig1", Frames: 1})
	doErr(t, e, Request{Experiment: "fig1", Frames: 2}) // second consecutive failure trips

	// While open: fast-fail without burning a worker.
	_, err := e.Do(context.Background(), Request{Experiment: "fig1", Frames: 3})
	var open *CircuitOpenError
	if !errors.As(err, &open) {
		t.Fatalf("err = %v, want CircuitOpenError", err)
	}
	if open.Experiment != "fig1" || open.RetryAfter <= 0 {
		t.Errorf("CircuitOpenError = %+v", open)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Errorf("runner ran %d times, want 2 (fast-fail must not run)", got)
	}
	// Other experiments are unaffected: breakers are per-experiment.
	mustDo(t, e, Request{Experiment: "fig4"})
	m := e.Metrics()
	if m.BreakerTrips != 1 || m.BreakerFastFails != 1 || m.BreakersOpen != 1 {
		t.Errorf("metrics = %+v, want 1 trip / 1 fast-fail / 1 open", m)
	}

	// After the cooldown the probe runs; the script is exhausted so it
	// passes and the breaker closes.
	time.Sleep(150 * time.Millisecond)
	mustDo(t, e, Request{Experiment: "fig1", Frames: 3})
	if m := e.Metrics(); m.BreakersOpen != 0 {
		t.Errorf("breaker still open after successful probe: %+v", m)
	}
}

func TestChaosBreakerProbeFailureReopens(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Fail(), faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond,
		Run: injectedRunner(inj, nil)})

	doErr(t, e, Request{Experiment: "fig1", Frames: 1}) // trips immediately
	time.Sleep(80 * time.Millisecond)
	doErr(t, e, Request{Experiment: "fig1", Frames: 2}) // probe admitted, fails, reopens

	_, err := e.Do(context.Background(), Request{Experiment: "fig1", Frames: 3})
	var open *CircuitOpenError
	if !errors.As(err, &open) {
		t.Fatalf("after failed probe: err = %v, want CircuitOpenError", err)
	}
	if m := e.Metrics(); m.BreakerTrips != 2 {
		t.Errorf("breaker trips = %d, want 2 (initial + failed probe)", m.BreakerTrips)
	}
}

// TestChaosAbandonedProbeReleasesBreaker: a half-open probe abandoned
// while queued must hand its slot back to the breaker. Without the
// rollback the probe never reaches breaker.record, probing stays true
// forever, and every future submission for the experiment fast-fails
// until restart.
func TestChaosAbandonedProbeReleasesBreaker(t *testing.T) {
	var calls int64
	started := make(chan string, 4)
	release := make(chan struct{})
	inj := faultinject.NewSequence(faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond,
		Run: func(ctx context.Context, r Request) (*harness.Result, error) {
			if r.Experiment == "fig4" {
				started <- r.Experiment
				<-release
				return &harness.Result{Experiment: r.Experiment, Title: "gate"}, nil
			}
			atomic.AddInt64(&calls, 1)
			if err := inj.Apply(ctx); err != nil {
				return nil, err
			}
			return &harness.Result{Experiment: r.Experiment, Title: "probe"}, nil
		}})

	doErr(t, e, Request{Experiment: "fig1", Frames: 1}) // trips immediately

	// Occupy the only worker so the upcoming probe stays queued.
	if _, _, err := e.Submit(Request{Experiment: "fig4"}); err != nil {
		t.Fatal(err)
	}
	<-started
	time.Sleep(60 * time.Millisecond) // cooldown elapses; next fig1 submission is the probe

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, Request{Experiment: "fig1", Frames: 2})
		errc <- err
	}()
	waitFor(t, func() bool { return e.Metrics().Requests >= 3 })
	cancel() // abandon the queued probe
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned probe Do returned %v, want context.Canceled", err)
	}

	// The half-open slot must be free again: a fresh submission is
	// admitted as the new probe rather than fast-failing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Do(context.Background(), Request{Experiment: "fig1", Frames: 3}); err != nil {
			t.Errorf("fresh probe after abandonment: %v", err)
		}
	}()
	waitFor(t, func() bool { return e.Metrics().Requests >= 4 })
	close(release) // drain the gate; the worker skips the corpse, runs the probe
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("breaker never released the abandoned probe's slot")
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Errorf("fig1 ran %d times, want 2 (initial failure + successful probe; the corpse never runs)", got)
	}
	if m := e.Metrics(); m.Cancelled != 1 || m.BreakersOpen != 0 {
		t.Errorf("metrics = %+v, want 1 cancelled job and no open breakers", m)
	}
}

func TestChaosServeStaleWhileOpen(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Pass(), faultinject.Fail())
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Minute, ServeStale: true,
		Run: injectedRunner(inj, nil)})

	good := mustDo(t, e, Request{Experiment: "fig1", Frames: 1})
	doErr(t, e, Request{Experiment: "fig1", Frames: 2}) // opens the breaker

	rep := mustDo(t, e, Request{Experiment: "fig1", Frames: 3})
	if !rep.Stale {
		t.Error("open breaker with ServeStale should mark the reply stale")
	}
	if string(rep.Body) != string(good.Body) {
		t.Error("stale reply is not the experiment's last good result")
	}
	if m := e.Metrics(); m.StaleServed != 1 {
		t.Errorf("stale_served = %d, want 1", m.StaleServed)
	}
}

// TestChaosAbandonedQueuedJobCancelled covers the fixed Do semantics: a
// queued job whose only waiter leaves is cancelled in place, never runs,
// and does not trap later identical requests via coalescing.
func TestChaosAbandonedQueuedJobCancelled(t *testing.T) {
	var calls int64
	started := make(chan string, 4)
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 8,
		Run: gatedRunner(started, release, &calls)})

	// Occupy the only worker with an async job (not abandonable).
	if _, _, err := e.Submit(Request{Experiment: "fig1"}); err != nil {
		t.Fatal(err)
	}
	<-started

	// A synchronous caller queues fig4 and then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, Request{Experiment: "fig4"})
		errc <- err
	}()
	waitFor(t, func() bool { return e.Metrics().Requests >= 2 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do returned %v, want context.Canceled", err)
	}
	if m := e.Metrics(); m.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", m.Cancelled)
	}

	close(release) // drain the worker
	// The cancelled job must never have run, and a fresh identical
	// request must start a new job rather than coalesce onto the corpse.
	rep := mustDo(t, e, Request{Experiment: "fig4"})
	if rep.Cached {
		t.Error("fresh fig4 request served from cache; cancelled job leaked a result")
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Errorf("runner ran %d times, want 2 (fig1 + fresh fig4; cancelled job never runs)", got)
	}
}

// TestChaosSubmittedJobSurvivesWaiterLoss: a job with an async submitter
// keeps running when a coalesced synchronous waiter leaves.
func TestChaosSubmittedJobSurvivesWaiterLoss(t *testing.T) {
	var calls int64
	started := make(chan string, 4)
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 8,
		Run: gatedRunner(started, release, &calls)})

	if _, _, err := e.Submit(Request{Experiment: "fig1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	job, _, err := e.Submit(Request{Experiment: "fig4"}) // queued, poller interested
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, Request{Experiment: "fig4"}) // coalesces onto job
		errc <- err
	}()
	waitFor(t, func() bool { return e.Metrics().Coalesced >= 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("coalesced Do returned %v, want context.Canceled", err)
	}

	close(release)
	select {
	case <-job.done:
	case <-time.After(5 * time.Second):
		t.Fatal("submitted job never finished")
	}
	st, _ := e.JobStatus(job.ID)
	if st.Status != StatusDone {
		t.Errorf("submitted job status = %s, want done (a poller still wants it)", st.Status)
	}
	if m := e.Metrics(); m.Cancelled != 0 {
		t.Errorf("cancelled = %d, want 0", m.Cancelled)
	}
}

// TestChaosShutdownDuringRetryBackoff: Shutdown must cut a retry backoff
// short instead of waiting it out — no deadlock, no double close.
func TestChaosShutdownDuringRetryBackoff(t *testing.T) {
	leakcheck.Check(t)
	inj := faultinject.NewSequence(
		faultinject.Fail(), faultinject.Fail(), faultinject.Fail(), faultinject.Fail())
	e, err := NewEngine(Config{Workers: 1, CacheEntries: 8, Logger: discardLogger(),
		MaxRetries: 3, RetryBackoff: time.Minute, Run: injectedRunner(inj, nil)})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := e.Submit(Request{Experiment: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return e.Metrics().Retries >= 1 }) // now sleeping the backoff

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during backoff: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Shutdown took %v; the minute-long backoff was not aborted", elapsed)
	}
	select {
	case <-job.done:
	case <-time.After(time.Second):
		t.Fatal("job done never closed after drain")
	}
	st, _ := e.JobStatus(job.ID)
	if st.Status != StatusFailed {
		t.Errorf("job status = %s, want failed with the last transient error", st.Status)
	}
}

// TestChaosShutdownWithOpenBreaker: draining with an open breaker must
// not deadlock, and post-shutdown submissions fail cleanly.
func TestChaosShutdownWithOpenBreaker(t *testing.T) {
	leakcheck.Check(t)
	inj := faultinject.NewSequence(faultinject.Fail())
	e, err := NewEngine(Config{Workers: 2, CacheEntries: 8, MaxRetries: -1, Logger: discardLogger(),
		BreakerThreshold: 1, BreakerCooldown: time.Minute, Run: injectedRunner(inj, nil)})
	if err != nil {
		t.Fatal(err)
	}
	doErr(t, e, Request{Experiment: "fig1"}) // opens the breaker

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with open breaker: %v", err)
	}
	if _, _, err := e.Submit(Request{Experiment: "fig1"}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit: %v, want ErrShuttingDown", err)
	}
}

// TestChaosRandomStorm fires a deterministic storm of panics, transient
// errors, delays, and client abandonments at a small engine and asserts
// the system-level invariants: every tracked job reaches a terminal
// state, the engine still serves fresh work afterwards, and (via
// leakcheck.Check in newTestEngine) no goroutine survives the drain.
func TestChaosRandomStorm(t *testing.T) {
	inj := faultinject.NewRandom(42, faultinject.Spec{
		PanicRate: 0.15, ErrorRate: 0.25, DelayRate: 0.2, Delay: 2 * time.Millisecond})
	e := newTestEngine(t, Config{Workers: 4, QueueDepth: 16, CacheEntries: 8,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
		JobTimeout: time.Second,
		Run:        injectedRunner(inj, nil)})

	experiments := []string{"fig1", "fig4", "fig5", "fig7"}
	var wg sync.WaitGroup
	var jobs sync.Map // id -> struct{}
	for i := 0; i < 80; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{Experiment: experiments[i%len(experiments)], Frames: i%7 + 1}
			if i%2 == 0 {
				// Synchronous caller with a tight patience window: many of
				// these abandon their jobs mid-queue.
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				e.Do(ctx, req) //nolint:errcheck // any outcome is legal in the storm
				return
			}
			if job, _, err := e.Submit(req); err == nil && job != nil {
				jobs.Store(job.ID, job)
			}
		}()
	}
	wg.Wait()

	// Every surviving job must reach a terminal state.
	jobs.Range(func(_, v any) bool {
		job := v.(*Job)
		select {
		case <-job.done:
		case <-time.After(10 * time.Second):
			st, _ := e.JobStatus(job.ID)
			t.Fatalf("job %s stuck in %s after the storm", job.ID, st.Status)
		}
		st, ok := e.JobStatus(job.ID)
		if ok && st.Status != StatusDone && st.Status != StatusFailed && st.Status != StatusCancelled {
			t.Errorf("job %s in non-terminal state %s", job.ID, st.Status)
		}
		return true
	})

	// The engine must still serve: fig12 was untouched by the storm, so
	// its breaker is closed; retry through residual injected faults.
	waitFor(t, func() bool {
		_, err := e.Do(context.Background(), Request{Experiment: "fig12"})
		return err == nil
	})

	m := e.Metrics()
	if m.Requests == 0 || m.Completed+m.Failed+m.Cancelled == 0 {
		t.Errorf("storm left no trace in metrics: %+v", m)
	}
	t.Logf("storm metrics: completed=%d failed=%d cancelled=%d retries=%d panics=%d timeouts=%d trips=%d fastfails=%d",
		m.Completed, m.Failed, m.Cancelled, m.Retries, m.Panics, m.Timeouts, m.BreakerTrips, m.BreakerFastFails)
}

// waitFor polls cond until it holds or the test deadline budget (10s)
// runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
