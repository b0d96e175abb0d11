package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gspc/internal/panics"
)

// replayWorkers resolves the concurrency budget an experiment may spend,
// shared by the trace-synthesis pool and the per-frame policy fan-out:
// Options.Workers when set, otherwise min(GOMAXPROCS, 4).
func (o Options) replayWorkers() int {
	w := o.normalized().Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 4 {
			w = 4
		}
	}
	return w
}

// fanOut runs jobs 0..n-1 on up to workers goroutines and joins them all
// before returning. Callers collect results positionally (each job writes
// its own slot), so accumulation order — and therefore every floating
// point sum downstream — is identical to a sequential loop no matter how
// the goroutines interleave.
//
// The first job error cancels the derived context, stopping the other
// jobs at their next poll; fanOut reports a real failure in preference to
// the cancellations it caused, and a parent-context death (Canceled or
// DeadlineExceeded) surfaces as itself. A job that panics on a worker
// goroutine does the same, and once every worker has returned fanOut
// raises the first such panic again on the caller's goroutine (see
// panics.First), where a recover can catch it.
func fanOut(ctx context.Context, workers, n int, run func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	var fault panics.First
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fault.Recover(cancel)
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := run(fctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	fault.Raise()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// stageClock accumulates wall-clock nanoseconds and invocation counts for
// one experiment stage. Stages overlap under fan-out, so the totals are
// summed per-invocation wall time (comparable to CPU time), not elapsed
// time.
type stageClock struct {
	ns    atomic.Int64
	count atomic.Int64
}

func (s *stageClock) add(d time.Duration) {
	s.ns.Add(d.Nanoseconds())
	s.count.Add(1)
}

// StageSet is one attribution scope for the stage clocks: a service
// engine injects its own set (via WithStages on the run context) so
// several engines in one process — the norm in tests, possible in
// embedders — see only their own work, while the process-global set
// keeps accumulating the sum of everything.
type StageSet struct {
	synth  stageClock // frame synthesis (trace-cache misses)
	replay stageClock // offline policy replays, incl. Belady
	timing stageClock // gpu timing-model simulations
}

// NewStageSet returns an empty attribution scope.
func NewStageSet() *StageSet { return &StageSet{} }

// Timings snapshots this set's accumulators.
func (s *StageSet) Timings() StageTimings {
	return StageTimings{
		SynthCount:  s.synth.count.Load(),
		SynthMs:     float64(s.synth.ns.Load()) / 1e6,
		ReplayCount: s.replay.count.Load(),
		ReplayMs:    float64(s.replay.ns.Load()) / 1e6,
		TimingCount: s.timing.count.Load(),
		TimingMs:    float64(s.timing.ns.Load()) / 1e6,
	}
}

// procStages is the process-wide sum; every tracked stage folds into it
// in addition to the context-scoped set (when present).
var procStages StageSet

// stagesKey carries a *StageSet through a run's context.
type stagesKey struct{}

// WithStages returns ctx carrying the attribution scope; the harness
// folds stage time into it (as well as the process-global sum) for any
// experiment run under the returned context. A nil set returns ctx
// unchanged.
func WithStages(ctx context.Context, s *StageSet) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, stagesKey{}, s)
}

func stagesFrom(ctx context.Context) *StageSet {
	s, _ := ctx.Value(stagesKey{}).(*StageSet)
	return s
}

// Stage selectors for trackStage.
var (
	pickSynth  = func(s *StageSet) *stageClock { return &s.synth }
	pickReplay = func(s *StageSet) *stageClock { return &s.replay }
	pickTiming = func(s *StageSet) *stageClock { return &s.timing }
)

// trackStage starts a timer; the returned func stops it and folds the
// elapsed time into the process-global clock and, when the context
// carries one, the run's own StageSet. Use as:
// defer trackStage(ctx, pickReplay)().
func trackStage(ctx context.Context, pick func(*StageSet) *stageClock) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		pick(&procStages).add(d)
		if s := stagesFrom(ctx); s != nil {
			pick(s).add(d)
		}
	}
}

// StageTimings snapshots the per-stage accumulators: how a scope has
// spent its experiment time, split into trace synthesis, offline policy
// replay, and timing simulation. Served by gspcd's /metricsz.
type StageTimings struct {
	SynthCount  int64   `json:"synth_count"`
	SynthMs     float64 `json:"synth_ms"`
	ReplayCount int64   `json:"replay_count"`
	ReplayMs    float64 `json:"replay_ms"`
	TimingCount int64   `json:"timing_count"`
	TimingMs    float64 `json:"timing_ms"`
}

// Timings returns the process-wide stage timing snapshot — the sum over
// every engine and direct harness call in the process.
func Timings() StageTimings {
	return procStages.Timings()
}
