package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// ResultSchemaVersion is the version of the serialized Result layout.
// It is stamped into every Result by BuildResult and checked by
// DecodeResult, so persisted payloads (the service's durable snapshots,
// gspcsim -json archives) from an incompatible layout are rejected with
// a typed error instead of being half-decoded. Bump it whenever a field
// changes meaning, moves, or disappears; purely additive fields do not
// require a bump.
const ResultSchemaVersion = 1

// Result is the serializable form of one experiment run: the full table,
// a per-row metric map for scripted consumers, and the rendered text the
// CLI prints. Its JSON encoding is deterministic (Go sorts map keys), so
// identical options produce byte-identical payloads — the property the
// service's result cache and the acceptance tests rely on.
type Result struct {
	// SchemaVersion is ResultSchemaVersion at encode time; see
	// DecodeResult.
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Title         string `json:"title"`

	// The normalized configuration the experiment actually ran with.
	Scale           float64  `json:"scale"`
	CapacityFactor  float64  `json:"capacity_factor"`
	MaxFramesPerApp int      `json:"max_frames_per_app,omitempty"`
	Apps            []string `json:"apps,omitempty"`
	// Geometry is the scaled model geometry the paper's 8 MB LLC maps to.
	Geometry string `json:"geometry"`
	// Fidelity is the run's fidelity ("exact" or "sampled"); omitted on
	// payloads from builds that predate sampling (decode as "", treat as
	// exact). Additive: no schema bump.
	Fidelity string `json:"fidelity,omitempty"`
	// Sampling summarizes the sampling protocol of a sampled run — the
	// set subset, the mean measured window fraction, and the estimated
	// relative error of the scaled counters. Nil on exact runs.
	Sampling *SamplingReport `json:"sampling,omitempty"`

	Table *Table `json:"table"`
	// PerApp maps each table row label (application abbreviation for the
	// per-app figures, policy name for e.g. fig13) to its column values.
	// The MEAN row is reported separately.
	PerApp map[string]map[string]float64 `json:"per_app,omitempty"`
	Mean   map[string]float64            `json:"mean,omitempty"`
	// Rendered is the aligned text table, exactly as gspcsim prints it.
	Rendered string `json:"rendered"`
}

// SamplingReport summarizes how a sampled-fidelity run measured and
// extrapolated, aggregated over every replay of the run.
type SamplingReport struct {
	// SetRatio and SetSeed are the set-sampling configuration; 1 in
	// SetRatio sets were simulated.
	SetRatio int    `json:"set_ratio"`
	SetSeed  uint64 `json:"set_seed"`
	// SetsSimulated of SetsTotal is the realized subset on the run's
	// primary geometry.
	SetsSimulated int `json:"sets_simulated"`
	SetsTotal     int `json:"sets_total"`
	// WindowFraction is the mean fraction of the full trace the measured
	// windows covered (0 when interval sampling was skipped).
	WindowFraction float64 `json:"window_fraction,omitempty"`
	// EstRelErr and MaxRelErr are the mean and worst per-replay relative
	// standard error of the scaled access counters, estimated from the
	// across-set variance of the sampled subset.
	EstRelErr float64 `json:"est_rel_err"`
	MaxRelErr float64 `json:"max_rel_err"`
	// Replays counts the measured replays aggregated here.
	Replays int64 `json:"replays"`
}

// BuildResult assembles the serializable result for an experiment whose
// table has already been computed under the given options.
func BuildResult(e Experiment, o Options, t *Table) *Result {
	o = o.normalized()
	r := &Result{
		SchemaVersion:   ResultSchemaVersion,
		Experiment:      e.ID,
		Title:           e.Title,
		Scale:           o.Scale,
		CapacityFactor:  o.CapacityFactor,
		MaxFramesPerApp: o.MaxFramesPerApp,
		Apps:            o.Apps,
		Geometry:        o.Geometry(paperLLCBytes).String(),
		Fidelity:        o.Fidelity,
		Table:           t,
	}
	if o.sampleAgg != nil {
		r.Sampling = o.sampleAgg.report(o)
	}
	for _, row := range t.Rows {
		m := map[string]float64{}
		for i, c := range t.Columns {
			if i < len(row.Values) {
				m[c] = row.Values[i]
			}
		}
		if len(m) == 0 {
			continue
		}
		if row.Label == "MEAN" {
			r.Mean = m
			continue
		}
		if r.PerApp == nil {
			r.PerApp = map[string]map[string]float64{}
		}
		r.PerApp[row.Label] = m
	}
	var b strings.Builder
	t.Render(&b)
	r.Rendered = b.String()
	return r
}

// RunResult runs the experiment with the given id (figures, tables, and
// extensions all resolve) and returns its serializable result.
func RunResult(id string, o Options) (*Result, error) {
	return RunResultContext(context.Background(), id, o)
}

// RunResultContext is RunResult bounded by ctx: the context is threaded
// into the trace-synthesis and cache-simulation loops, so cancelling it
// (or letting its deadline expire) stops the experiment promptly. The
// returned error wraps ctx.Err() when the run was cut short, so callers
// can errors.Is it against context.DeadlineExceeded / context.Canceled.
func RunResultContext(ctx context.Context, id string, o Options) (*Result, error) {
	e, ok := ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	o.Context = ctx
	if o.Normalized().sampled() {
		// The aggregate travels by pointer: the experiment's replays fold
		// their sampling reports into it and BuildResult reads it back.
		o.sampleAgg = &sampleAgg{}
	}
	t, err := e.Run(o)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("harness: experiment %s interrupted: %w", id, ctx.Err())
		}
		return nil, err
	}
	return BuildResult(e, o, t), nil
}

// SchemaMismatchError reports a serialized Result whose schema version
// does not match this build's ResultSchemaVersion. Consumers loading
// persisted results (durable snapshots, archived gspcsim -json output)
// should treat the payload as unusable rather than reinterpret it.
type SchemaMismatchError struct{ Got, Want int }

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("harness: result schema version %d, this build reads %d", e.Got, e.Want)
}

// DecodeResult parses a serialized Result and verifies its schema
// version, returning a *SchemaMismatchError on any other version. A
// payload with no schema_version field decodes as version 0 and is
// likewise rejected: pre-versioning payloads predate the durable store
// and cannot be trusted across builds.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("harness: decode result: %w", err)
	}
	if r.SchemaVersion != ResultSchemaVersion {
		return nil, &SchemaMismatchError{Got: r.SchemaVersion, Want: ResultSchemaVersion}
	}
	return &r, nil
}

// UnknownExperimentError reports a request for an experiment id that is
// neither a paper figure nor an extension.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "harness: unknown experiment " + e.ID
}
