package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions runs one frame of one application at a small scale so the
// experiment plumbing can be exercised quickly.
func tinyOptions() Options {
	return Options{
		Scale:           0.1,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
		Apps:            []string{"AssnCreed"},
	}
}

func TestGeometryScaling(t *testing.T) {
	o := DefaultOptions()
	g := o.Geometry(8 << 20)
	// 8 MB x 0.25^2 x 1.5 = 768 KB.
	if g.SizeBytes != 768<<10 {
		t.Errorf("scaled capacity = %d, want 768KB", g.SizeBytes)
	}
	if g.Ways != 16 || g.BlockSize != 64 {
		t.Errorf("geometry = %v", g)
	}
	// Full scale: factor defaults to 1.
	full := Options{Scale: 1}
	if got := full.Geometry(8 << 20).SizeBytes; got != 8<<20 {
		t.Errorf("full-scale capacity = %d, want 8MB", got)
	}
}

func TestGeometryMinimumSets(t *testing.T) {
	o := Options{Scale: 0.01, CapacityFactor: 1}
	g := o.Geometry(1 << 20)
	if g.Sets() < 16 {
		t.Errorf("sets = %d, want >= 16", g.Sets())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestJobsFiltering(t *testing.T) {
	o := Options{Apps: []string{"Dirt", "HAWX"}, MaxFramesPerApp: 2}
	jobs := o.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	for _, j := range jobs {
		if j.App.Abbrev != "Dirt" && j.App.Abbrev != "HAWX" {
			t.Errorf("unexpected app %s", j.App.Abbrev)
		}
	}
	all := Options{}.Jobs()
	if len(all) != 52 {
		t.Errorf("unfiltered jobs = %d, want 52", len(all))
	}
}

func TestTableRenderAndCell(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("x", 1.5, 2.5)
	tbl.AddRow("MEAN", 1, 2)
	tbl.Notes = append(tbl.Notes, "hello")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "x", "MEAN", "1.50", "2.50", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if v, ok := tbl.Cell("x", "b"); !ok || v != 2.5 {
		t.Errorf("Cell = %v %v", v, ok)
	}
	if _, ok := tbl.Cell("zz", "b"); ok {
		t.Error("bogus row found")
	}
	if _, ok := tbl.Cell("x", "zz"); ok {
		t.Error("bogus column found")
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	ids := map[string]bool{}
	for _, e := range all {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tab1", "tab6"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if _, ok := ByID("fig12"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
}

func TestTable1(t *testing.T) {
	tbl, err := RunTable1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 {
		t.Errorf("rows = %d, want 12", len(tbl.Rows))
	}
	if v, ok := tbl.Cell("Heaven", "Width"); !ok || v != 2560 {
		t.Errorf("Heaven width = %v", v)
	}
	var frames float64
	for _, r := range tbl.Rows {
		frames += r.Values[3]
	}
	if frames != 52 {
		t.Errorf("total frames = %v, want 52", frames)
	}
}

func TestTable6(t *testing.T) {
	tbl, err := RunTable6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Errorf("policies = %d, want 9 (Table 6)", len(tbl.Rows))
	}
}

func TestFig1Tiny(t *testing.T) {
	tbl, err := RunFig1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	bel, ok := tbl.Cell("MEAN", "Belady")
	if !ok {
		t.Fatal("no Belady mean")
	}
	if bel >= 1 || bel <= 0.3 {
		t.Errorf("Belady normalized misses = %v, expected well below 1", bel)
	}
	nru, _ := tbl.Cell("MEAN", "NRU")
	if nru < 0.7 || nru > 1.4 {
		t.Errorf("NRU normalized misses = %v, implausible", nru)
	}
}

func TestFig4Tiny(t *testing.T) {
	tbl, err := RunFig4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tbl.Lookup("AssnCreed")
	if !ok {
		t.Fatal("app row missing")
	}
	sum := 0.0
	for _, v := range row.Values {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("stream mix sums to %v, want 100", sum)
	}
}

func TestFig11Tiny(t *testing.T) {
	tbl, err := RunFig11(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Values are percent changes vs t=16; they must be small.
	for _, r := range tbl.Rows {
		for _, v := range r.Values {
			if v < -30 || v > 30 {
				t.Errorf("t-sensitivity %v%% out of plausible range", v)
			}
		}
	}
}

func TestFig12TinyHasAllPolicies(t *testing.T) {
	tbl, err := RunFig12(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 8 {
		t.Errorf("fig12 columns = %d, want 8", len(tbl.Columns))
	}
	for _, col := range []string{"NRU", "SHiP-mem", "GS-DRRIP", "GSPZTC", "GSPZTC+TSE", "GSPC", "GSPC+UCD", "DRRIP+UCD"} {
		if _, ok := tbl.Cell("MEAN", col); !ok {
			t.Errorf("fig12 missing column %s", col)
		}
	}
}

func TestFig15Tiny(t *testing.T) {
	tbl, err := RunFig15(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.Cell("MEAN", "GSPC+UCD")
	if !ok {
		t.Fatal("GSPC column missing")
	}
	if v < 0.5 || v > 2 {
		t.Errorf("normalized performance %v implausible", v)
	}
}

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) != 7 {
		t.Errorf("extensions = %d, want 7", len(exts))
	}
	if _, ok := ByID("abl-banks"); !ok {
		t.Error("ByID missed an ablation")
	}
}

func TestExtWarmTiny(t *testing.T) {
	o := tinyOptions()
	tbl, err := RunExtWarm(o)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.Cell("AssnCreed", "DRRIP")
	if !ok {
		t.Fatal("warm table missing app row")
	}
	// A warm cache can only help: the ratio must be at most ~1.
	if v > 1.02 {
		t.Errorf("warm/cold miss ratio = %v, warm cache should not hurt", v)
	}
	if v < 0.2 {
		t.Errorf("warm/cold miss ratio = %v, implausibly low", v)
	}
}

func TestAblSamplesTiny(t *testing.T) {
	tbl, err := RunAblSamples(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 4 {
		t.Errorf("columns = %d", len(tbl.Columns))
	}
	for _, col := range tbl.Columns {
		v, ok := tbl.Cell("MEAN", col)
		if !ok || v < 0.5 || v > 1.5 {
			t.Errorf("density %s ratio %v implausible", col, v)
		}
	}
}

func TestExtPoliciesTiny(t *testing.T) {
	tbl, err := RunExtPolicies(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"DIP", "peLIFO", "CounterDBP", "GSPC+UCD"} {
		if _, ok := tbl.Cell("MEAN", col); !ok {
			t.Errorf("missing column %s", col)
		}
	}
}

func TestFig5Tiny(t *testing.T) {
	tbl, err := RunFig5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Belady's hit rate must dominate DRRIP's for every stream.
	for _, pair := range [][2]string{{"tex/Bel", "tex/DRRIP"}, {"rt/Bel", "rt/DRRIP"}, {"z/Bel", "z/DRRIP"}} {
		bel, _ := tbl.Cell("MEAN", pair[0])
		dr, _ := tbl.Cell("MEAN", pair[1])
		if bel < dr {
			t.Errorf("%s (%v) below %s (%v)", pair[0], bel, pair[1], dr)
		}
	}
}

func TestFig6Tiny(t *testing.T) {
	tbl, err := RunFig6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Belady's inter+intra split is normalized to its own hits: sums to 100.
	inter, _ := tbl.Cell("MEAN", "inter/Bel")
	intra, _ := tbl.Cell("MEAN", "intra/Bel")
	if s := inter + intra; s < 99.9 || s > 100.1 {
		t.Errorf("Belady split sums to %v", s)
	}
	consB, _ := tbl.Cell("MEAN", "cons/Bel")
	consD, _ := tbl.Cell("MEAN", "cons/DRRIP")
	if consB < consD {
		t.Errorf("Belady consumption %v below DRRIP %v", consB, consD)
	}
}

func TestFig7Tiny(t *testing.T) {
	tbl, err := RunFig7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Epoch hit shares sum to <= 100 and E0 dominates.
	var sum float64
	for _, col := range []string{"hit%E0", "hit%E1", "hit%E2", "hit%E3+"} {
		v, _ := tbl.Cell("MEAN", col)
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("epoch hit shares sum to %v", sum)
	}
	e0, _ := tbl.Cell("MEAN", "hit%E0")
	e1, _ := tbl.Cell("MEAN", "hit%E1")
	if e0 < e1 {
		t.Errorf("E0 hits (%v) below E1 (%v); paper has E0 dominating", e0, e1)
	}
	for _, col := range []string{"death E0", "death E1", "death E2"} {
		v, _ := tbl.Cell("MEAN", col)
		if v < 0 || v > 1 {
			t.Errorf("%s = %v outside [0,1]", col, v)
		}
	}
}

func TestFig8Tiny(t *testing.T) {
	tbl, err := RunFig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.Columns {
		v, _ := tbl.Cell("MEAN", col)
		if v < 0 || v > 100 {
			t.Errorf("distant fill %% %s = %v", col, v)
		}
	}
}

func TestFig9Tiny(t *testing.T) {
	tbl, err := RunFig9(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.Columns {
		v, _ := tbl.Cell("MEAN", col)
		if v < 0 || v > 1 {
			t.Errorf("death ratio %s = %v", col, v)
		}
	}
}

func TestFig13Tiny(t *testing.T) {
	tbl, err := RunFig13(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Belady's consumption must top every online policy's.
	bel, _ := tbl.Cell("Belady", "rt->tex cons")
	for _, row := range []string{"DRRIP", "GSPZTC", "GSPC"} {
		v, ok := tbl.Cell(row, "rt->tex cons")
		if !ok {
			t.Fatalf("row %s missing", row)
		}
		if v > bel+0.1 {
			t.Errorf("%s consumption %v exceeds Belady %v", row, v, bel)
		}
	}
}

func TestFig14Tiny(t *testing.T) {
	tbl, err := RunFig14(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 4 {
		t.Errorf("fig14 columns = %d, want 4", len(tbl.Columns))
	}
}

func TestFig16And17Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments")
	}
	t16, err := RunFig16(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := t16.Cell("MEAN", "GSPC+UCD"); !ok {
		t.Error("fig16 missing GSPC column")
	}
	t17, err := RunFig17(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := t17.Cell("ddr3-1867/MEAN", "GSPC+UCD"); !ok {
		t.Error("fig17 missing fast-DRAM mean")
	}
	if _, ok := t17.Cell("smallgpu/MEAN", "NRU"); !ok {
		t.Error("fig17 missing small-GPU mean")
	}
}

func TestAblBanksTiny(t *testing.T) {
	tbl, err := RunAblBanks(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"1-bank", "2-bank", "4-bank", "8-bank"} {
		if _, ok := tbl.Cell("MEAN", col); !ok {
			t.Errorf("missing %s", col)
		}
	}
}

func TestExtUCPTiny(t *testing.T) {
	tbl, err := RunExtUCP(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Cell("MEAN", "UCP"); !ok {
		t.Error("UCP column missing")
	}
}

func TestAblFrontCacheTiny(t *testing.T) {
	tbl, err := RunAblFrontCache(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := tbl.Cell("MEAN", "linLLCacc")
	area, _ := tbl.Cell("MEAN", "areaLLCacc")
	if lin <= 0 || area <= 0 {
		t.Error("front-cache ablation produced empty traces")
	}
	// Area-scaled front caches are smaller, so they leak more accesses.
	if area < lin {
		t.Errorf("area scaling (%v accesses) should leak more than linear (%v)", area, lin)
	}
}

func TestAblMortonTiny(t *testing.T) {
	tbl, err := RunAblMorton(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := tbl.Cell("MEAN", "rowmajAcc")
	mo, _ := tbl.Cell("MEAN", "mortonAcc")
	if rm <= 0 || mo <= 0 {
		t.Error("morton ablation produced empty traces")
	}
}

// TestExtWarmSuiteOrder: ext-warm lists each app once, in suite order,
// however the Apps option spells the selection, like every other table.
func TestExtWarmSuiteOrder(t *testing.T) {
	o := tinyOptions()
	o.Apps = []string{"HAWX", "Dirt", "HAWX"}
	tbl, err := RunExtWarm(o)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range tbl.Rows {
		labels = append(labels, r.Label)
	}
	if got, want := strings.Join(labels, ","), "Dirt,HAWX,MEAN"; got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
}
