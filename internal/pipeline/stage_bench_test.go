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

func benchFrame() *pipeline.Frame { return benchJob().Build(benchScale) }

var benchConfig = rendercache.DefaultConfig().Scaled(benchScale)

// reportPerRequest reports the time per render-cache request the frame
// makes, whether it got a batch entry of its own or was folded into an
// earlier one's run, and the number of entries.
func reportPerRequest(b *testing.B, requests, entries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(requests), "ns/request")
	b.ReportMetric(float64(requests), "requests/op")
	b.ReportMetric(float64(entries), "entries/op")
}

// BenchmarkWorkloadBuild measures the first stage alone: building the
// frame's passes, draws and surfaces.
func BenchmarkWorkloadBuild(b *testing.B) {
	job := benchJob()
	for i := 0; i < b.N; i++ {
		if len(job.Build(benchScale).Passes) == 0 {
			b.Fatal("frame has no passes")
		}
	}
}

// BenchmarkRenderRequests measures the rasterizing stage alone: the
// renderer encoding a frame's render-cache requests into an apply stage
// that discards them.
func BenchmarkRenderRequests(b *testing.B) {
	f := benchFrame()
	requests, _ := pipeline.RecordRequests(f, benchConfig).Len()
	rc := rendercache.New(benchConfig, nil)
	var entries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries = pipeline.RenderDiscarding(pipeline.NewRenderer(rc), f)
	}
	reportPerRequest(b, requests, entries)
}

// BenchmarkRenderCacheApply measures the filtering stage alone: a
// frame's recorded request stream applied to a fresh render-cache
// complex whose LLC emissions are discarded.
func BenchmarkRenderCacheApply(b *testing.B) {
	q := pipeline.RecordRequests(benchFrame(), benchConfig)
	discard := stream.SinkFunc(func(stream.Access) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rc := rendercache.New(benchConfig, discard)
		b.StartTimer()
		q.Apply(rc)
	}
	requests, entries := q.Len()
	reportPerRequest(b, requests, entries)
}
