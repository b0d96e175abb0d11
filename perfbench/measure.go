package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Op classes. Each workload splits its ops into a light and a heavy
// class whose medians are reported separately (light_p50_ms,
// heavy_p50_ms); README.md says which ops fall in which class.
const (
	classLight = "light"
	classHeavy = "heavy"
	classOther = "other"
)

// op is one completed operation of a measured window.
type op struct {
	class string
	// label names what the op computed, e.g. "fig12/Dirt"; the traced
	// run uses it to attribute the op's time to layers.
	label string
	ms    float64
	// simAccesses counts the LLC accesses the op simulated, from the
	// benchmark's own knowledge: pinned trace length × replays.
	simAccesses int64
	ok          bool
}

// window is the outcome of one measured, closed-loop stretch of ops.
type window struct {
	ops        []op
	elapsed    time.Duration
	allocBytes uint64
	peakLive   uint64
}

// add folds another measured stretch into w.
func (w *window) add(o *window) {
	w.ops = append(w.ops, o.ops...)
	w.elapsed += o.elapsed
	w.allocBytes += o.allocBytes
	w.peakLive = max(w.peakLive, o.peakLive)
}

// session is a set-up workload, ready to drive ops.
type session interface {
	// drive runs ops in a closed loop until deadline (finishing the ops
	// in flight) and returns them. With a non-nil recorder it records
	// spans at every layer boundary it can see.
	drive(deadline time.Time, rec *recorder) []op
	// probes names the traces the per-layer probes replay.
	probes() probeSpec
	// layerMetrics reports the workload's own per-layer metrics from the
	// traced window and the probe results.
	layerMetrics(w *window, rec *recorder, pr *probeResult, put func(name string, v float64))
	close()
}

// measure drives s for d and records time, allocation and live heap.
func measure(s session, d time.Duration, rec *recorder) *window {
	runtime.GC()
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(samples)
	alloc0 := samples[0].Value.Uint64()

	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	t0 := time.Now()
	ops := s.drive(t0.Add(d), rec)
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	metrics.Read(samples)
	return &window{
		ops:        ops,
		elapsed:    elapsed,
		allocBytes: samples[0].Value.Uint64() - alloc0,
		peakLive:   max(peak, samples[1].Value.Uint64()),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
