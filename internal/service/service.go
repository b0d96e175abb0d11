// Package service turns the one-shot experiment harness into a serving
// system: a canonical request type with deterministic cache keys, a
// bounded job queue with backpressure, a worker pool, coalescing of
// concurrent identical requests, and an in-memory result cache whose
// eviction is delegated to the repo's own LLC replacement policies
// (internal/policy) — the reproduction dogfooding its subject matter.
// cmd/gspcd exposes the engine over HTTP.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"gspc/internal/harness"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

// Request names one experiment run: an experiment id plus the harness
// options that shape it. It is the wire format of POST /v1/runs.
type Request struct {
	Experiment string `json:"experiment"`
	// Scale is the linear frame scale (0 = harness default, 0.25).
	Scale float64 `json:"scale,omitempty"`
	// CapacityFactor calibrates the scaled LLC capacity (0 = default).
	CapacityFactor float64 `json:"capacity_factor,omitempty"`
	// Frames truncates each application's frame list (0 = all).
	Frames int `json:"frames,omitempty"`
	// Apps restricts the run to the named applications (empty = all).
	Apps []string `json:"apps,omitempty"`
	// Fidelity selects the simulation fidelity: "exact" (the default)
	// replays every access of every LLC set, "sampled" composes set
	// sampling with interval sampling for an interactive answer with an
	// estimated error bound attached (Result.Sampling).
	Fidelity string `json:"fidelity,omitempty"`
	// SampleRatio and SampleSeed tune sampled fidelity (0 = harness
	// defaults); both are ignored — and canonicalized away — under exact
	// fidelity, where they cannot change the result.
	SampleRatio int    `json:"sample_ratio,omitempty"`
	SampleSeed  uint64 `json:"sample_seed,omitempty"`
	// Workers caps the harness trace-synthesis pool (0 = default). It
	// changes wall-clock time only, never results, so it is excluded
	// from the cache key.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps this run's wall-clock in milliseconds, on top of
	// (never beyond) the engine-wide job timeout; 0 means no extra cap.
	// Like Workers it shapes execution, not the result, so it is
	// excluded from the cache key: a replay under a generous timeout may
	// be served from a run submitted under a tight one.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BadRequestError reports a request the engine refuses to run; HTTP
// handlers map it to 400.
type BadRequestError struct{ Reason string }

func (e *BadRequestError) Error() string { return "service: bad request: " + e.Reason }

// Normalize validates the request and folds every spelling of the
// defaults onto one canonical form: harness defaults are applied, the
// app list is de-duplicated, sorted, and checked against the workload
// suite, and an explicit full app list collapses to "all apps". Two
// requests for the same computation therefore normalize identically,
// which is what makes Key a sound cache key.
func (r Request) Normalize() (Request, error) {
	if _, ok := harness.ByID(r.Experiment); !ok {
		return r, &BadRequestError{Reason: fmt.Sprintf("unknown experiment %q", r.Experiment)}
	}
	if r.Scale < 0 || r.Scale > 4 {
		return r, &BadRequestError{Reason: fmt.Sprintf("scale %g out of range (0, 4]", r.Scale)}
	}
	if r.TimeoutMS < 0 {
		return r, &BadRequestError{Reason: fmt.Sprintf("timeout_ms %d must be non-negative", r.TimeoutMS)}
	}
	switch r.Fidelity {
	case "", harness.FidelityExact, harness.FidelitySampled:
	default:
		return r, &BadRequestError{Reason: fmt.Sprintf(
			"unknown fidelity %q (want %q or %q)", r.Fidelity, harness.FidelityExact, harness.FidelitySampled)}
	}
	if r.SampleRatio < 0 {
		return r, &BadRequestError{Reason: fmt.Sprintf("sample_ratio %d must be non-negative", r.SampleRatio)}
	}
	o := harness.Options{
		Scale:           r.Scale,
		CapacityFactor:  r.CapacityFactor,
		MaxFramesPerApp: r.Frames,
		Workers:         r.Workers,
		Fidelity:        r.Fidelity,
		SampleSetRatio:  r.SampleRatio,
		SampleSeed:      r.SampleSeed,
	}.Normalized()
	r.Scale = o.Scale
	r.CapacityFactor = o.CapacityFactor
	r.Frames = o.MaxFramesPerApp
	r.Workers = o.Workers
	// The harness canonicalizes fidelity: exact zeroes the sampling
	// knobs (they cannot change an exact result), sampled fills in the
	// default ratio and seed — so every spelling of the same computation
	// carries the same knobs into Key.
	r.Fidelity = o.Fidelity
	r.SampleRatio = o.SampleSetRatio
	r.SampleSeed = o.SampleSeed

	if len(r.Apps) > 0 {
		seen := map[string]bool{}
		apps := make([]string, 0, len(r.Apps))
		for _, a := range r.Apps {
			a = strings.TrimSpace(a)
			if a == "" || seen[a] {
				continue
			}
			if _, ok := workload.ProfileByAbbrev(a); !ok {
				return r, &BadRequestError{Reason: fmt.Sprintf("unknown application %q", a)}
			}
			seen[a] = true
			apps = append(apps, a)
		}
		sort.Strings(apps)
		if len(apps) == len(workload.Profiles()) {
			apps = nil // the full suite, spelled out
		}
		r.Apps = apps
	}
	return r, nil
}

// Options maps the request to harness options. Call Normalize first.
func (r Request) Options() harness.Options {
	return harness.Options{
		Scale:           r.Scale,
		CapacityFactor:  r.CapacityFactor,
		MaxFramesPerApp: r.Frames,
		Apps:            r.Apps,
		Workers:         r.Workers,
		Fidelity:        r.Fidelity,
		SampleSetRatio:  r.SampleRatio,
		SampleSeed:      r.SampleSeed,
	}
}

// Key returns the deterministic cache key of a normalized request: a
// hash over every field that can change the result. Workers is excluded
// (parallelism never changes experiment output) and so is any progress
// sink. Identical computations — however their defaults were spelled —
// share a key.
func (r Request) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "exp=%s|scale=%g|capf=%g|frames=%d|apps=%s",
		r.Experiment, r.Scale, r.CapacityFactor, r.Frames, strings.Join(r.Apps, ","))
	// Sampled runs key on the full sampling configuration; exact runs
	// omit the component entirely so every pre-fidelity key (and every
	// durable snapshot holding one) is unchanged.
	if r.Fidelity == harness.FidelitySampled {
		fmt.Fprintf(h, "|fid=sampled|ratio=%d|seed=%d", r.SampleRatio, r.SampleSeed)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ExactTwin returns the exact-fidelity request that answers the same
// question as r without sampling error — what the engine escalates a
// sampled run to in the background. The twin of an exact request is
// itself.
func (r Request) ExactTwin() Request {
	r.Fidelity = harness.FidelityExact
	r.SampleRatio = 0
	r.SampleSeed = 0
	return r
}

// SampledTwin returns the sampled-fidelity request answering the same
// question as r at an eighth of the work — what the memory governor's
// ladder downgrades admissions to under pressure. Sampling knobs are
// reset to the harness defaults (re-normalizing fills them in), so every
// downgraded spelling of a computation lands on one cache key. The twin
// of a sampled request is itself.
func (r Request) SampledTwin() Request {
	if r.Fidelity == harness.FidelitySampled {
		return r
	}
	r.Fidelity = harness.FidelitySampled
	r.SampleRatio = 0
	r.SampleSeed = 0
	// r was already normalized; switching fidelity on a valid request
	// cannot make it invalid, so the error is structurally nil.
	r, _ = r.Normalize()
	return r
}

// EstimateRequestBytes estimates the peak in-flight memory a request
// holds while running: the packed trace records of every selected frame
// (EstimateAccesses × the 9-byte packed record), discounted 8× for
// sampled fidelity to mirror the work discount admission already
// applies. It is the figure the governor reserves at admission and the
// MaxRequestBytes ceiling compares against.
func EstimateRequestBytes(r Request) int64 {
	var total int64
	for _, job := range r.Options().Jobs() {
		total += int64(trace.EstimateAccesses(job, r.Scale)) * stream.RecordBytes
	}
	if r.Fidelity == harness.FidelitySampled {
		total /= 8
	}
	return total
}

// ExperimentInfo describes one runnable experiment for GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Kind  string `json:"kind"` // "paper" or "extension"
}

// Experiments lists every runnable experiment: the paper's figures and
// tables first, then the extensions and ablations.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range harness.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Kind: "paper"})
	}
	for _, e := range harness.Extensions() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Kind: "extension"})
	}
	return out
}
