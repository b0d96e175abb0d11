package harness

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/leakcheck"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/tracecache"
	"gspc/internal/workload"
)

// jobFailure is the value the fan-out tests' failing job panics with.
type jobFailure struct{ job int }

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (val any) {
	defer func() { val = recover() }()
	f()
	return nil
}

// TestFanOutPanicReraised: a job that panics on one of two workers
// cancels the jobs in flight and stops those not yet started, and once
// both workers have returned the panic is raised again, with the job's
// own value, on the caller's goroutine. The jobs after the failing one
// wait for the cancellation, so at most one of them — the other
// worker's — starts at all.
func TestFanOutPanicReraised(t *testing.T) {
	leakcheck.Check(t)
	const failing = 3
	var started, uncancelled atomic.Int64
	val := recovered(func() {
		fanOut(context.Background(), 2, 64, func(ctx context.Context, i int) error {
			if i == failing {
				panic(jobFailure{i})
			}
			if i > failing {
				started.Add(1)
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(10 * time.Second):
					uncancelled.Add(1)
				}
			}
			return nil
		})
	})
	if val != (jobFailure{failing}) {
		t.Fatalf("fanOut panicked with %v, want %v", val, jobFailure{failing})
	}
	if n := started.Load(); n > 1 {
		t.Errorf("%d jobs after the failing one started, want at most 1", n)
	}
	if uncancelled.Load() != 0 {
		t.Error("a job in flight was not cancelled")
	}
}

//go:noinline
func indexPastEnd(s []int) int { return s[len(s)] }

// TestFanOutRuntimeErrorKeepsStack: a runtime error in a fan-out job
// is raised again on the caller's goroutine as a runtime.Error with the
// same message whose PanicStack still locates the fault on the worker.
func TestFanOutRuntimeErrorKeepsStack(t *testing.T) {
	leakcheck.Check(t)
	val := recovered(func() {
		fanOut(context.Background(), 2, 4, func(ctx context.Context, i int) error {
			if i == 1 {
				indexPastEnd(nil)
			}
			return nil
		})
	})
	checkCarriedFault(t, val, "runtime error: index out of range [0] with length 0", "harness.indexPastEnd")
}

// checkCarriedFault requires val to be a runtime.Error reading msg that
// carries a stack naming fn.
func checkCarriedFault(t *testing.T, val any, msg, fn string) {
	t.Helper()
	err, ok := val.(runtime.Error)
	if !ok {
		t.Fatalf("panicked with %T %v, want a runtime.Error", val, val)
	}
	if err.Error() != msg {
		t.Errorf("raised error reads %q, want %q", err.Error(), msg)
	}
	carrier, ok := val.(interface{ PanicStack() []byte })
	if !ok {
		t.Fatalf("raised %T carries no stack", val)
	}
	if stack := string(carrier.PanicStack()); !strings.Contains(stack, fn) {
		t.Errorf("carried stack does not name %s:\n%s", fn, stack)
	}
}

// poisonTrace is a trace whose last record has stream kind 100, which
// no model knows, so code that indexes a per-kind table with it faults.
func poisonTrace(n int) *stream.Trace {
	accs := make([]stream.Access, n)
	accs[n-1].Kind = 100
	return stream.Pack(accs)
}

// poisonFrames plants tr in cache as every one of jobs' frames at each
// scale, under the keys synthesis would store them.
func poisonFrames(t testing.TB, cache *tracecache.Cache, jobs []workload.FrameJob, tr *stream.Trace, scales ...float64) {
	t.Helper()
	for _, j := range jobs {
		for _, sc := range scales {
			key := tracecache.Key{Job: j.ID(), Scale: sc, Config: rendercache.DefaultConfig().Scaled(sc).Digest()}
			if _, err := cache.Get(context.Background(), key, func(context.Context) (*stream.Trace, error) { return tr, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFramePoolPanicReraised: a sampled run's frame acquisition picks
// its measured window from a profile trace on the acquisition pool's
// workers. A profile with an unknown stream kind makes that pick fault
// on both workers; forEachFrame must join the pool and raise the fault
// on the caller's goroutine, with the stack that locates it, without
// handing the consumer a frame.
func TestFramePoolPanicReraised(t *testing.T) {
	leakcheck.Check(t)
	cache := tracecache.New(64 << 20)
	o := Options{Scale: minIntervalScale, MaxFramesPerApp: 1, Apps: []string{"Dirt", "HAWX"},
		Workers: 2, TraceCache: cache, Fidelity: FidelitySampled}
	poisonFrames(t, cache, o.Jobs(), poisonTrace(4*windowIntervals), profileScale1, profileScale2)
	val := recovered(func() {
		forEachFrame(o, func(j workload.FrameJob, _ *stream.Trace, _ *samplePlan) error {
			t.Errorf("consumer handed %s", j.ID())
			return nil
		})
	})
	checkCarriedFault(t, val, "runtime error: index out of range [100] with length 8", "harness.pickWindow")
}
