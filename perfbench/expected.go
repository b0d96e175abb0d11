package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"gspc/internal/harness"
	"gspc/internal/tracecache"
	"gspc/internal/workload"
)

// expected is the set of outputs pinned by the benchmark (expected.json),
// generated with -generate from the code the benchmark was defined on.
type expected struct {
	// Tables maps an op key (opKey) to the digest of its result table.
	Tables map[string]string `json:"tables"`
	// Lengths maps lengthKey(app, scale) to the LLC accesses of the
	// app's first frame: the benchmark's own knowledge of how much work
	// an op simulates.
	Lengths map[string]int `json:"lengths"`
	// Guards maps a probe set (probeSpec.name) to its simulated
	// per-layer metrics, which must repeat exactly.
	Guards map[string]map[string]float64 `json:"guards"`
}

// opKey names one experiment configuration the benchmark runs.
func opKey(exp, app string, scale, capf float64, sampled bool) string {
	k := fmt.Sprintf("%s/%s@%gx%g", exp, app, scale, capf)
	if sampled {
		k += "/sampled"
	}
	return k
}

func lengthKey(app string, scale float64) string { return fmt.Sprintf("%s@%g", app, scale) }

// tableDigest hashes a result table's JSON encoding, which carries every
// float at full precision, so equal digests mean bit-identical tables.
func tableDigest(t *harness.Table) string {
	raw, err := json.Marshal(t)
	if err != nil {
		// A Table holds strings and finite floats only.
		panic(fmt.Sprintf("perfbench: encode table: %v", err))
	}
	return rawDigest(raw)
}

func rawDigest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:12])
}

func loadExpected(path string) (*expected, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load expected tables: %w", err)
	}
	var e expected
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if len(e.Tables) == 0 || len(e.Lengths) == 0 {
		return nil, fmt.Errorf("%s pins no tables", path)
	}
	return &e, nil
}

// length returns the pinned trace length of an app's first frame.
func (e *expected) length(app string, scale float64) int {
	return e.Lengths[lengthKey(app, scale)]
}

// goldenIDs are the experiments whose golden tables are cross-checked at
// set-up: the three the figures-warm workload regenerates.
var goldenIDs = []string{"fig1", "fig12", "fig15"}

// goldenOptions mirrors the configuration internal/harness pins its
// golden tables at.
func goldenOptions() harness.Options {
	return harness.Options{
		Scale:           0.1,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
		Apps:            []string{"Dirt", "HAWX"},
		TraceCache:      tracecache.New(harness.DefaultTraceCacheBytes),
	}
}

// checkGolden regenerates the golden configuration and compares it with
// the harness's golden tables, so that expectations are never pinned,
// nor checked, against a build that already disagrees with them.
func checkGolden(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("load golden tables: %w", err)
	}
	var golden map[string]*harness.Table
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	o := goldenOptions()
	for _, id := range goldenIDs {
		want, ok := golden[id]
		if !ok {
			return fmt.Errorf("%s has no %s table", path, id)
		}
		res, err := harness.RunResultContext(context.Background(), id, o)
		if err != nil {
			return fmt.Errorf("golden %s: %w", id, err)
		}
		if tableDigest(res.Table) != tableDigest(want) {
			return fmt.Errorf("golden %s: this build's table differs from %s", id, path)
		}
	}
	return nil
}

// apps lists the suite's applications in suite order.
func apps() []string {
	var out []string
	for _, p := range workload.Profiles() {
		out = append(out, p.Abbrev)
	}
	return out
}

// generateExpected pins every table, trace length and guard metric the
// workloads check into path.
func generateExpected(golden, path string) error {
	if err := checkGolden(golden); err != nil {
		return err
	}
	e := &expected{Tables: map[string]string{}, Lengths: map[string]int{}, Guards: map[string]map[string]float64{}}
	pin := func(exp, app string, o harness.Options) error {
		o.Apps = []string{app}
		o.MaxFramesPerApp = 1
		res, err := harness.RunResultContext(context.Background(), exp, o)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", exp, app, err)
		}
		e.Tables[opKey(exp, app, res.Scale, res.CapacityFactor, res.Fidelity == harness.FidelitySampled)] = tableDigest(res.Table)
		return nil
	}
	warm := tracecache.New(harness.DefaultTraceCacheBytes)
	for _, app := range apps() {
		for _, exp := range figureExps {
			if err := pin(exp, app, harness.Options{Scale: figScale, CapacityFactor: figCapacity, TraceCache: warm}); err != nil {
				return err
			}
		}
		sampled := harness.Options{Scale: 1, Fidelity: harness.FidelitySampled,
			TraceCache: tracecache.New(harness.DefaultTraceCacheBytes)}
		if err := pin("fig12", app, sampled); err != nil {
			return err
		}
		for _, exp := range serveExps {
			if err := pin(exp, app, harness.Options{Scale: serveScale, CapacityFactor: serveCapacity, TraceCache: warm}); err != nil {
				return err
			}
		}
		for _, exp := range missExps {
			for _, capf := range missBuckets {
				if err := pin(exp, app, harness.Options{Scale: serveScale, CapacityFactor: capf, TraceCache: warm}); err != nil {
					return err
				}
			}
		}
	}
	for _, capf := range missBuckets {
		lo := harness.Options{Scale: serveScale, CapacityFactor: capf}.Geometry(8 << 20)
		hi := harness.Options{Scale: serveScale, CapacityFactor: capf + missOffsetSpan}.Geometry(8 << 20)
		if lo != hi {
			return fmt.Errorf("miss bucket %g spans two geometries (%s, %s)", capf, lo, hi)
		}
	}
	for _, spec := range probeSpecs() {
		res, err := runProbes(spec, nil)
		if err != nil {
			return err
		}
		for app, n := range res.lengths {
			e.Lengths[lengthKey(app, spec.scale)] = n
		}
		e.Guards[spec.name] = res.guards
	}
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkGuards compares a probe run's simulated metrics with the pinned
// ones; they are deterministic, so any difference is a failure.
func (b *bench) checkGuards(spec probeSpec, got map[string]float64) {
	want := b.want.Guards[spec.name]
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok || math.Float64bits(g) != math.Float64bits(want[n]) {
			b.fail("guard %s on %s: got %v, pinned %v", n, spec.name, g, want[n])
		}
	}
}
