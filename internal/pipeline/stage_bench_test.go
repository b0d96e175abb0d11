package pipeline_test

import (
	"testing"

	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

// benchScale and the suite frame below are BenchmarkTraceGeneration's,
// so the stage benches split that bench's synthesis: building the frame,
// rasterizing it into render-cache requests, and applying those.
const benchScale = 0.15

func benchJob() workload.FrameJob { return workload.Suite()[14] }

// reportPerRequest reports the time per render-cache request the frame
// makes, whether it got a batch entry of its own or was folded into an
// earlier one's run, and the number of entries.
func reportPerRequest(b *testing.B, requests, entries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(requests), "ns/request")
	b.ReportMetric(float64(requests), "requests/op")
	b.ReportMetric(float64(entries), "entries/op")
}

// BenchmarkWorkloadBuild measures the first stage alone: building the
// frame's passes, draws and surfaces, with the surfaces' address tables
// (their memory shows in B/op and allocs/op).
func BenchmarkWorkloadBuild(b *testing.B) {
	job := benchJob()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(job.Build(benchScale).Passes) == 0 {
			b.Fatal("frame has no passes")
		}
	}
}

// BenchmarkRenderRequests measures the rasterizing stage alone: the
// renderer encoding a frame's render-cache requests into an apply stage
// that discards them.
func BenchmarkRenderRequests(b *testing.B) { benchRenderRequests(b, benchScale) }

// BenchmarkRenderCacheApply measures the filtering stage alone: a
// frame's recorded request stream applied to a fresh render-cache
// complex whose LLC emissions are discarded.
func BenchmarkRenderCacheApply(b *testing.B) { benchRenderCacheApply(b, benchScale) }

// BenchmarkRenderRequestsScale1 and BenchmarkRenderCacheApplyScale1 run
// the two stages on the same frame at scale 1, where a query-cold
// sampled op renders its prefix: there the render caches have their
// full size, the texture L1 eight sets instead of one. The recorded
// stream the apply bench replays is ~31 M entries, about 525 MB.
func BenchmarkRenderRequestsScale1(b *testing.B) { benchRenderRequests(b, 1) }

func BenchmarkRenderCacheApplyScale1(b *testing.B) { benchRenderCacheApply(b, 1) }

func benchRenderRequests(b *testing.B, scale float64) {
	f := benchJob().Build(scale)
	rc := rendercache.New(rendercache.DefaultConfig().Scaled(scale), nil)
	var requests, entries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requests, entries = pipeline.RenderDiscarding(pipeline.NewRenderer(rc), f)
	}
	reportPerRequest(b, requests, entries)
}

func benchRenderCacheApply(b *testing.B, scale float64) {
	cfg := rendercache.DefaultConfig().Scaled(scale)
	q := pipeline.RecordRequests(benchJob().Build(scale), cfg)
	discard := stream.SinkFunc(func(stream.Access) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rc := rendercache.New(cfg, discard)
		b.StartTimer()
		q.Apply(rc)
	}
	requests, entries := q.Len()
	reportPerRequest(b, requests, entries)
}
