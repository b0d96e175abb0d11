package harness

import (
	"context"
	"testing"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

// TestPackedReplayEquivalence proves the packed trace representation is
// behavior-preserving: for one synthesized frame, cachesim.ReplaySource
// over trace.GeneratePacked's trace produces, under every evaluated
// policy, exactly the per-stream hit and miss counts of a plain c.Access
// loop over a reference []stream.Access recorded straight from the
// render-cache complex. The reference never passes through the packed
// columns, so if packing dropped or reordered a single record, or
// mispacked a kind/write bit, a policy would diverge here first.
func TestPackedReplayEquivalence(t *testing.T) {
	o := Options{Scale: 0.1}.normalized()
	j := workload.Suite()[0]
	ref := emittedAccesses(t, j, o.Scale)
	packed := trace.GeneratePacked(j, o.Scale)

	if packed.Len() != len(ref) {
		t.Fatalf("packed.Len() = %d, reference len %d", packed.Len(), len(ref))
	}
	for i, a := range ref {
		if got := packed.At(i); got != a {
			t.Fatalf("record %d: packed %+v != reference %+v", i, got, a)
		}
	}

	specs := append([]policySpec{specDRRIP(), specNRU()}, fig12Specs()...)
	geom := o.Geometry(paperLLCBytes)
	ctx := context.Background()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			a := sliceStats(geom, spec.make(), spec.ucd, ref)
			c, tk := trackedCache(geom, spec.make(), spec.ucd)
			if err := cachesim.ReplaySource(ctx, c, packed, 0); err != nil {
				t.Fatal(err)
			}
			compareReplays(t, a, frameResult{stats: c.Stats, tracker: tk})
		})
	}

	// Belady's lookahead keys on Seq: the reference carries its positions
	// explicitly, the packed replay takes them from ReplaySource. The
	// record check above makes the two traces' next-use chains equal.
	t.Run("Belady", func(t *testing.T) {
		next := belady.NextUseTrace(packed, blockShift(geom.BlockSize))
		a := sliceStats(geom, belady.NewOPT(next), false, ref)
		b, err := runOffline(ctx, packed, specBelady(), geom, nil, withTracker)
		if err != nil {
			t.Fatal(err)
		}
		compareReplays(t, a, b)
	})
}

// emittedAccesses renders job's frame at scale through a fresh
// render-cache complex configured as trace.GeneratePacked configures it,
// and records every LLC access the complex emits, with Seq set to its
// position.
func emittedAccesses(t *testing.T, job workload.FrameJob, scale float64) []stream.Access {
	t.Helper()
	frame := job.Build(scale)
	if err := frame.Validate(); err != nil {
		t.Fatal(err)
	}
	var accs []stream.Access
	rc := rendercache.New(rendercache.DefaultConfig().Scaled(scale), stream.SinkFunc(func(a stream.Access) {
		a.Seq = int64(len(accs))
		accs = append(accs, a)
	}))
	pipeline.NewRenderer(rc).RenderFrame(frame)
	return accs
}

// trackedCache builds a cache the way runOffline does, with a tracker
// attached.
func trackedCache(geom cachesim.Geometry, pol cachesim.Policy, ucd bool) (*cachesim.Cache, *analysis.Tracker) {
	c := cachesim.New(geom, pol)
	if ucd {
		c.SetBypass(stream.Display, true)
	}
	return c, analysis.Attach(c)
}

// sliceStats is the reference replay: a plain Access loop over a
// []stream.Access trace.
func sliceStats(geom cachesim.Geometry, pol cachesim.Policy, ucd bool, tr []stream.Access) frameResult {
	c, tk := trackedCache(geom, pol, ucd)
	for _, a := range tr {
		c.Access(a)
	}
	return frameResult{stats: c.Stats, tracker: tk}
}

// compareReplays demands identical counters and per-stream tracker
// tallies from the reference replay a and the packed replay b.
func compareReplays(t *testing.T, a, b frameResult) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("stats diverge: reference %+v, packed %+v", a.stats, b.stats)
	}
	for _, k := range stream.Kinds() {
		if a.tracker.KindHits(k) != b.tracker.KindHits(k) ||
			a.tracker.KindAccesses(k) != b.tracker.KindAccesses(k) {
			t.Errorf("%s: reference %d/%d hits/accesses, packed %d/%d", k,
				a.tracker.KindHits(k), a.tracker.KindAccesses(k),
				b.tracker.KindHits(k), b.tracker.KindAccesses(k))
		}
	}
}

// TestTrackerNeverChangesResults checks that attaching the analysis
// tracker is pure observation: runOffline returns the same counters and
// DRRIP fill tallies with and without it, for every policy the figures
// replay, Belady included, both exactly and under a set- and
// interval-sampled plan.
func TestTrackerNeverChangesResults(t *testing.T) {
	o := Options{Scale: 0.1}.normalized()
	tr := trace.GeneratePacked(workload.Suite()[0], o.Scale)
	geom := o.Geometry(paperLLCBytes)
	ctx := context.Background()
	measStart := tr.Len() / 4
	sampled := &samplePlan{
		sample:    cachesim.SetSample{Ratio: 8, Seed: 1},
		measStart: measStart,
		fullEst:   float64(tr.Len()),
		factor:    float64(tr.Len()) / float64(tr.Len()-measStart),
	}
	specs := append([]policySpec{specDRRIP(), specNRU(), specBelady()}, fig12Specs()...)
	for _, plan := range []*samplePlan{nil, sampled} {
		mode := "exact"
		if plan != nil {
			mode = "sampled"
		}
		for _, spec := range specs {
			plain, err := runOffline(ctx, tr, spec, geom, plan, noTracker)
			if err != nil {
				t.Fatal(err)
			}
			tracked, err := runOffline(ctx, tr, spec, geom, plan, withTracker)
			if err != nil {
				t.Fatal(err)
			}
			if plain.tracker != nil || tracked.tracker == nil {
				t.Errorf("%s/%s: tracker attached %v without, %v with", mode, spec.name, plain.tracker != nil, tracked.tracker != nil)
			}
			if plain.stats != tracked.stats || plain.drrip != tracked.drrip {
				t.Errorf("%s/%s: results diverge with the tracker attached:\n without %+v\n with    %+v", mode, spec.name, plain, tracked)
			}
			if plain.stats.Accesses == 0 {
				t.Errorf("%s/%s: replay measured no accesses", mode, spec.name)
			}
		}
	}
}
