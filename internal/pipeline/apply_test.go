package pipeline_test

import (
	"runtime"
	"strings"
	"testing"

	"gspc/internal/leakcheck"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

func appJob(t testing.TB, abbrev string) workload.FrameJob {
	t.Helper()
	for _, p := range workload.Profiles() {
		if p.Abbrev == abbrev {
			return workload.FrameJob{App: p}
		}
	}
	t.Fatalf("no application %q", abbrev)
	return workload.FrameJob{}
}

// sinkFailure is the value panicSink panics with.
type sinkFailure struct{ at int }

// panicSink counts the records it takes and panics at the limit-th.
type panicSink struct{ n, limit int }

func (s *panicSink) Emit(stream.Access) {
	s.n++
	if s.n == s.limit {
		panic(sinkFailure{s.n})
	}
}

// panicLimit is the record at which panicSink panics.
const panicLimit = 1000

// TestSinkPanicStopsRender: a panic in the sink, which runs on the
// apply stage's goroutine, must stop the rasterizer within a few
// batches and re-raise on the caller's goroutine with the sink's own
// value, leaving no goroutine behind.
func TestSinkPanicStopsRender(t *testing.T) {
	leakcheck.Check(t)
	job := appJob(t, "Dirt")
	sink := &panicSink{limit: panicLimit}
	r := pipeline.NewRenderer(rendercache.New(rendercache.DefaultConfig().Scaled(1), sink))
	val := func() (val any) {
		defer func() { val = recover() }()
		r.RenderFrame(job.Build(1))
		return nil
	}()
	if val != (sinkFailure{panicLimit}) {
		t.Fatalf("RenderFrame panicked with %v, want %v", val, sinkFailure{panicLimit})
	}
	if sink.n != panicLimit {
		t.Errorf("sink took %d records, want %d", sink.n, panicLimit)
	}
	full := pipeline.NewRenderer(nil)
	pipeline.RenderDiscarding(full, job.Build(1))
	if r.PixelsShaded*20 >= full.PixelsShaded {
		t.Errorf("aborted render shaded %d pixels, over 5%% of a full render's %d", r.PixelsShaded, full.PixelsShaded)
	}
}

// faultySink indexes out of range at its limit-th record, as a faulty
// cache model would.
type faultySink struct {
	n, limit int
	none     []int
}

func (s *faultySink) Emit(stream.Access) {
	s.n++
	if s.n == s.limit {
		_ = s.none[s.n]
	}
}

// TestStageRuntimeErrorKeepsStack: a runtime error raised while the
// render caches filter, on the apply stage's goroutine, re-raises on
// the caller's as a runtime.Error with the same message that still
// carries the stack locating the fault.
func TestStageRuntimeErrorKeepsStack(t *testing.T) {
	leakcheck.Check(t)
	sink := &faultySink{limit: panicLimit}
	r := pipeline.NewRenderer(rendercache.New(rendercache.DefaultConfig().Scaled(0.05), sink))
	val := func() (val any) {
		defer func() { val = recover() }()
		r.RenderFrame(appJob(t, "Dirt").Build(0.05))
		return nil
	}()
	err, ok := val.(runtime.Error)
	if !ok {
		t.Fatalf("RenderFrame panicked with %T %v, want a runtime.Error", val, val)
	}
	if want := "runtime error: index out of range [1000] with length 0"; err.Error() != want {
		t.Errorf("re-raised error reads %q, want %q", err.Error(), want)
	}
	carrier, ok := val.(interface{ PanicStack() []byte })
	if !ok {
		t.Fatalf("re-raised %T carries no stack", val)
	}
	if stack := string(carrier.PanicStack()); !strings.Contains(stack, "faultySink).Emit") {
		t.Errorf("carried stack does not locate the fault:\n%s", stack)
	}
}
