package harness

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current implementation")

// goldenOptions is the fixed configuration the golden tables are pinned
// at: two applications, one frame, a small scale. Everything in the
// repository is deterministic, so these tables must stay bit-identical
// across refactors of the synthesis and replay machinery.
func goldenOptions() Options {
	return Options{
		Scale:           0.1,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
		Apps:            []string{"Dirt", "HAWX"},
	}
}

// goldenTable is the serialized form of one experiment table: every cell
// at full float64 precision (bit-exact through JSON round-trips).
type goldenTable struct {
	Columns []string    `json:"columns"`
	Rows    []goldenRow `json:"rows"`
	Notes   []string    `json:"notes,omitempty"`
	Title   string      `json:"title"`
}

type goldenRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

func tableToGolden(t *Table) goldenTable {
	g := goldenTable{Columns: t.Columns, Notes: t.Notes, Title: t.Title}
	for _, r := range t.Rows {
		g.Rows = append(g.Rows, goldenRow{Label: r.Label, Values: r.Values})
	}
	return g
}

// TestGoldenTables regenerates every experiment — the paper's figures
// and tables plus the extensions — at the pinned configuration and
// requires each cell to match testdata/golden.json bit for bit. Run with
// -update-golden to re-pin after an intentional model change.
func TestGoldenTables(t *testing.T) {
	o := goldenOptions()
	got := map[string]goldenTable{}
	for _, e := range append(All(), Extensions()...) {
		tbl, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = tableToGolden(tbl)
	}

	checkGolden(t, filepath.Join("testdata", "golden.json"), got)
}

// variantOptions is the configuration TestGoldenVariants pins: one
// application with two frames, so every per-app sum adds more than one
// frame, at the golden scale and capacity.
func variantOptions() Options {
	return Options{
		Scale:           0.1,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 2,
		Apps:            []string{"Dirt"},
	}
}

// TestGoldenVariants pins every experiment at variantOptions, once exact
// and once set-sampled, against testdata/golden_variants.json. The main
// goldens sum one frame per app and sample only fig15; this file covers
// multi-frame accumulation and the sampled path of every experiment.
func TestGoldenVariants(t *testing.T) {
	got := map[string]goldenTable{}
	for _, fid := range []string{FidelityExact, FidelitySampled} {
		o := variantOptions()
		o.Fidelity = fid
		for _, e := range append(All(), Extensions()...) {
			tbl, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s/%s: %v", fid, e.ID, err)
			}
			got[fid+"/"+e.ID] = tableToGolden(tbl)
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_variants.json"), got)
}

// TestGoldenSampledFig15 pins the sampled-fidelity timing path: Figure
// 15 at a scale where interval sampling engages, so the timing model
// runs on the synthesized prefix and the cycle counts are extrapolated
// to the estimated full trace. The exact goldens never take this path.
// The LLC is a third of the golden size so the short window fills it
// and the policies' cycle counts separate.
func TestGoldenSampledFig15(t *testing.T) {
	o := goldenOptions()
	o.Scale = 0.5
	o.CapacityFactor = 0.5
	o.Apps = []string{"Dirt"}
	o.Fidelity = FidelitySampled
	n := o.normalized()
	tr, plan, err := acquireFrame(context.Background(), n, n.Jobs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if plan.fullEst <= float64(tr.Len()) {
		t.Fatalf("interval sampling did not engage: %d-record trace, full estimate %v", tr.Len(), plan.fullEst)
	}
	tbl, err := RunFig15(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_sampled.json"),
		map[string]goldenTable{"fig15": tableToGolden(tbl)})
}

// checkGolden compares tables against the golden file at path, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, path string, got map[string]goldenTable) {
	t.Helper()
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenTable
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: experiment missing from run", id)
			continue
		}
		compareGolden(t, id, w, g)
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: new experiment not in golden file (run -update-golden)", id)
		}
	}
}

func compareGolden(t *testing.T, id string, want, got goldenTable) {
	t.Helper()
	if want.Title != got.Title {
		t.Errorf("%s: title = %q, want %q", id, got.Title, want.Title)
	}
	if len(want.Notes) != len(got.Notes) {
		t.Errorf("%s: %d notes, want %d", id, len(got.Notes), len(want.Notes))
	} else {
		for i := range want.Notes {
			if want.Notes[i] != got.Notes[i] {
				t.Errorf("%s: note %d = %q, want %q", id, i, got.Notes[i], want.Notes[i])
			}
		}
	}
	if len(want.Columns) != len(got.Columns) {
		t.Errorf("%s: %d columns, want %d", id, len(got.Columns), len(want.Columns))
		return
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Errorf("%s: column %d = %q, want %q", id, i, got.Columns[i], want.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Errorf("%s: %d rows, want %d", id, len(got.Rows), len(want.Rows))
		return
	}
	for r := range want.Rows {
		wr, gr := want.Rows[r], got.Rows[r]
		if wr.Label != gr.Label {
			t.Errorf("%s: row %d label = %q, want %q", id, r, gr.Label, wr.Label)
			continue
		}
		if len(wr.Values) != len(gr.Values) {
			t.Errorf("%s/%s: %d values, want %d", id, wr.Label, len(gr.Values), len(wr.Values))
			continue
		}
		for c := range wr.Values {
			// Bit-exact: the experiments are deterministic and the
			// accumulation order is part of the contract.
			if math.Float64bits(wr.Values[c]) != math.Float64bits(gr.Values[c]) {
				t.Errorf("%s/%s/%s = %v, want %v (bit-exact)",
					id, wr.Label, want.Columns[c], gr.Values[c], wr.Values[c])
			}
		}
	}
}
