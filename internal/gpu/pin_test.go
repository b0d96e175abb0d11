package gpu_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/gpu"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pins.json from the current implementation")

// pinScale is the synthesis scale of the pinned frames. Heaven is the
// suite's longest trace at any scale and keeps the most fills in flight,
// so it drives the MSHR file through many capacity sweeps.
const pinScale = 0.1

var pinApps = []string{"Dirt", "HAWX", "Heaven"}

// pinGeom is the harness's Figure 15 LLC at pinScale and capacity
// factor 1.5: 8 MB × 0.1² × 1.5 rounds down to 122 sets of 16 ways.
var pinGeom = cachesim.Geometry{SizeBytes: 122 * 16 * 64, Ways: 16, BlockSize: 64}

// pinPolicies are the four Figure 15 policies, each with uncached
// displayable color as the performance figures run them.
var pinPolicies = []struct {
	name string
	mk   func() cachesim.Policy
}{
	{"DRRIP", func() cachesim.Policy { return policy.NewDRRIP(2) }},
	{"NRU", func() cachesim.Policy { return policy.NewNRU() }},
	{"GS-DRRIP", func() cachesim.Policy { return policy.NewGSDRRIP(2) }},
	{"GSPC", func() cachesim.Policy { return core.New(core.DefaultParams(core.VariantGSPC)) }},
}

// pinConfigs are the baseline GPU and the Figure 17 less aggressive one.
func pinConfigs() map[string]gpu.Config {
	base := gpu.DefaultConfig(pinGeom)
	base.UncachedDisplay = true
	small := base
	small.Cores = 64
	small.Samplers = 8
	return map[string]gpu.Config{"baseline": base, "64x8": small}
}

// TestTimingPins simulates synthesized suite frames on the timing model
// and requires every field of every gpu.Result to match
// testdata/pins.json exactly. The model is deterministic, so any change
// to the event loop, the MSHR file, the LLC or DRAM that moves a single
// cycle or counter fails here. Run with -update-golden to re-pin after
// an intentional model change.
func TestTimingPins(t *testing.T) {
	got := map[string]gpu.Result{}
	for _, app := range pinApps {
		tr := pinTrace(t, app)
		for cname, cfg := range pinConfigs() {
			for _, pp := range pinPolicies {
				got[app+"/"+pp.name+"/"+cname] = gpu.SimulateSource(tr, cfg, pp.mk())
			}
		}
	}
	checkPins(t, "pins.json", got)
}

// farConfigs stretch the compute gaps so wake-ups land far beyond the
// few-thousand-cycle deltas of the baseline. "texture-100k" puts every
// texture wake-up 400,000 cycles out (100,000 thread-cycles at the
// baseline's gap scale of 4) among ordinary near ones; "near-32k"
// spreads the streams' wake-ups over 26,000 to 36,000 cycles, around
// the 32,768 cycles the scheduler's ring spans (see calendar).
func farConfigs() map[string]gpu.Config {
	base := gpu.DefaultConfig(pinGeom)
	base.UncachedDisplay = true
	tex := base
	tex.ComputeGap[stream.Texture] = 100000
	near := base
	near.ComputeGap = [stream.NumKinds]int{
		stream.Vertex:  6500,
		stream.HiZ:     7000,
		stream.Z:       7600,
		stream.Stencil: 7900,
		stream.RT:      8000,
		stream.Texture: 8100,
		stream.Display: 8500,
		stream.Other:   9000,
	}
	return map[string]gpu.Config{"texture-100k": tex, "near-32k": near}
}

// TestTimingPinsFarWakeups pins whole simulations whose wake-ups reach
// past the scheduler's ring, so the events it holds beyond the ring,
// and their interleaving with the events inside it, are fenced end to
// end against testdata/pins_far.json (written with -update-golden).
func TestTimingPinsFarWakeups(t *testing.T) {
	got := map[string]gpu.Result{}
	drrip := pinPolicies[0]
	for _, app := range []string{"Dirt", "Heaven"} {
		tr := pinTrace(t, app)
		for cname, cfg := range farConfigs() {
			got[app+"/"+drrip.name+"/"+cname] = gpu.SimulateSource(tr, cfg, drrip.mk())
		}
	}
	checkPins(t, "pins_far.json", got)
}

// pinTrace synthesizes app's first frame at pinScale.
func pinTrace(t *testing.T, app string) *stream.Trace {
	t.Helper()
	p, ok := workload.ProfileByAbbrev(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return trace.GeneratePacked(workload.FrameJob{App: p}, pinScale)
}

// checkPins compares got with testdata/name field for field, or rewrites
// the file under -update-golden.
func checkPins(t *testing.T, name string, got map[string]gpu.Result) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d results)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pins (regenerate with -update-golden): %v", err)
	}
	var want map[string]gpu.Result
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned results, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned result not produced", k)
			continue
		}
		if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", k, g, w)
		}
	}
}
