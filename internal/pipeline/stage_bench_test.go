package pipeline_test

import (
	"testing"

	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

// benchScale and the suite frame below are BenchmarkTraceGeneration's,
// so the two stage benches split that bench's synthesis.
const benchScale = 0.15

func benchFrame() *pipeline.Frame { return workload.Suite()[14].Build(benchScale) }

func reportPerRequest(b *testing.B, requests int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(requests), "ns/request")
	b.ReportMetric(float64(requests), "requests/op")
}

// BenchmarkRenderRequests measures the rasterizing stage alone: the
// renderer encoding a frame's render-cache requests into an apply stage
// that discards them.
func BenchmarkRenderRequests(b *testing.B) {
	f := benchFrame()
	var requests int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requests = pipeline.RenderDiscarding(pipeline.NewRenderer(nil), f)
	}
	reportPerRequest(b, requests)
}

// BenchmarkRenderCacheApply measures the filtering stage alone: a
// frame's recorded request stream applied to a fresh render-cache
// complex whose LLC emissions are discarded.
func BenchmarkRenderCacheApply(b *testing.B) {
	q := pipeline.RecordRequests(benchFrame())
	cfg := rendercache.DefaultConfig().Scaled(benchScale)
	discard := stream.SinkFunc(func(stream.Access) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rc := rendercache.New(cfg, discard)
		b.StartTimer()
		q.Apply(rc)
	}
	reportPerRequest(b, q.Len())
}
