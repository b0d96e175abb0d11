package harness

import (
	"context"
	"testing"

	"gspc/internal/analysis"
	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

// TestPackedReplayEquivalence proves the packed trace representation is
// behavior-preserving: for one synthesized frame, cachesim.ReplaySource
// over the packed trace produces, under every evaluated policy, exactly
// the per-stream hit and miss counts of a plain c.Access loop over the
// classic []stream.Access form. This is the seam the whole perf layer
// rests on — if packing dropped or reordered a single record, or
// mispacked a kind/write bit, a policy would diverge here first.
func TestPackedReplayEquivalence(t *testing.T) {
	o := Options{Scale: 0.1}.normalized()
	j := workload.Suite()[0]
	slice := trace.GenerateFrame(j, o.Scale)
	packed := trace.GeneratePacked(j, o.Scale)

	if packed.Len() != len(slice) {
		t.Fatalf("packed.Len() = %d, slice len = %d", packed.Len(), len(slice))
	}
	for i, a := range slice {
		if got := packed.At(i); got != a {
			t.Fatalf("record %d: packed %+v != slice %+v", i, got, a)
		}
	}

	specs := append([]policySpec{specDRRIP(), specNRU()}, fig12Specs()...)
	geom := o.Geometry(paperLLCBytes)
	ctx := context.Background()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			a := sliceStats(geom, spec.make(), spec.ucd, slice)
			c, tk := trackedCache(geom, spec.make(), spec.ucd)
			if err := cachesim.ReplaySource(ctx, c, packed, 0); err != nil {
				t.Fatal(err)
			}
			compareReplays(t, a, frameResult{stats: c.Stats, tracker: tk})
		})
	}

	// Belady consumes the trace twice (next-use preprocessing + replay),
	// so it exercises both NextUse paths.
	t.Run("Belady", func(t *testing.T) {
		next := belady.NextUse(slice, blockShift(geom.BlockSize))
		a := sliceStats(geom, belady.NewOPT(next), false, slice)
		b, err := runOffline(ctx, packed, specBelady(), geom, nil, withTracker)
		if err != nil {
			t.Fatal(err)
		}
		compareReplays(t, a, b)
	})
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

// sliceStats is the classic replay: a plain Access loop over the
// []stream.Access form of the trace.
func sliceStats(geom cachesim.Geometry, pol cachesim.Policy, ucd bool, tr []stream.Access) frameResult {
	c, tk := trackedCache(geom, pol, ucd)
	for _, a := range tr {
		c.Access(a)
	}
	return frameResult{stats: c.Stats, tracker: tk}
}

// compareReplays demands identical counters and per-stream tracker
// tallies from the slice replay a and the packed replay b.
func compareReplays(t *testing.T, a, b frameResult) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("stats diverge: slice %+v, packed %+v", a.stats, b.stats)
	}
	for _, k := range stream.Kinds() {
		if a.tracker.KindHits(k) != b.tracker.KindHits(k) ||
			a.tracker.KindAccesses(k) != b.tracker.KindAccesses(k) {
			t.Errorf("%s: slice %d/%d hits/accesses, packed %d/%d", k,
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

// TestTraceRoundTrip checks Pack/Materialize and the packed disk format
// against the slice-based container format byte-for-byte.
func TestTraceRoundTrip(t *testing.T) {
	o := Options{Scale: 0.05}.normalized()
	slice := trace.GenerateFrame(workload.Suite()[1], o.Scale)
	packed := stream.Pack(slice)
	back := packed.Materialize()
	if len(back) != len(slice) {
		t.Fatalf("materialized %d records, want %d", len(back), len(slice))
	}
	for i := range slice {
		if back[i] != slice[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], slice[i])
		}
	}
}
