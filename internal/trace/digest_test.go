package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.json from the current implementation")

const (
	// digestScale is the scale of the fully synthesized digest frames.
	digestScale = 0.1
	// digestPrefix is the record budget of the full-resolution prefix
	// digests, synthesized the way the sampled-fidelity path does.
	digestPrefix = 50_000
)

// synthesisDigest pins one application's synthesis output.
type synthesisDigest struct {
	// Frame is the SHA-256 of the first frame's packed trace at
	// digestScale, in the binary container format.
	Frame string `json:"frame"`
	// Prefix is the SHA-256 of the first digestPrefix records of the
	// same frame at scale 1, via GeneratePackedPrefix.
	Prefix string `json:"prefix"`
	// Caches holds every render cache's statistics after the
	// digestScale render.
	Caches map[string]cachesim.Stats `json:"caches"`
}

func traceSHA(t *testing.T, tr *stream.Trace) string {
	t.Helper()
	h := sha256.New()
	if err := WriteTrace(h, tr); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthesisDigests requires the LLC traces synthesized for the
// first frame of every application, and the render-cache statistics
// behind them, to match testdata/digests.json exactly. Synthesis is
// deterministic, so any change to the workload builder, the pipeline,
// the address math or the render caches that moves a single record or
// counter fails here. Run with -update-digests to re-pin after an
// intentional model change.
func TestSynthesisDigests(t *testing.T) {
	got := map[string]synthesisDigest{}
	for _, p := range workload.Profiles() {
		job := workload.FrameJob{App: p}
		frame := GeneratePacked(job, digestScale)

		// Render the same frame again through a complex this test
		// holds, for its statistics; its trace must match the first.
		again := stream.NewTrace(frame.Len())
		rc := rendercache.New(rendercache.DefaultConfig().Scaled(digestScale), again)
		pipeline.NewRenderer(rc).RenderFrame(job.Build(digestScale))

		prefix := stream.NewTrace(digestPrefix)
		GeneratePackedPrefix(prefix, job, 1, rendercache.DefaultConfig().Scaled(1), digestPrefix)

		d := synthesisDigest{Frame: traceSHA(t, frame), Prefix: traceSHA(t, prefix), Caches: rc.Stats()}
		if again := traceSHA(t, again); again != d.Frame {
			t.Errorf("%s: GeneratePacked digest %s, complex render %s", p.Abbrev, d.Frame, again)
		}
		got[p.Abbrev] = d
	}

	path := filepath.Join("testdata", "digests.json")
	if *updateDigests {
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
		t.Logf("wrote %s (%d apps)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read digests (regenerate with -update-digests): %v", err)
	}
	var want map[string]synthesisDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned apps, run produced %d", len(want), len(got))
	}
	for app, w := range want {
		g, ok := got[app]
		if !ok {
			t.Errorf("%s: pinned app not synthesized", app)
			continue
		}
		if g.Frame != w.Frame {
			t.Errorf("%s: frame digest %s, want %s", app, g.Frame, w.Frame)
		}
		if g.Prefix != w.Prefix {
			t.Errorf("%s: prefix digest %s, want %s", app, g.Prefix, w.Prefix)
		}
		if len(g.Caches) != len(w.Caches) {
			t.Errorf("%s: %d render caches, want %d", app, len(g.Caches), len(w.Caches))
		}
		for name, ws := range w.Caches {
			if gs := g.Caches[name]; gs != ws {
				t.Errorf("%s/%s:\n got %+v\nwant %+v", app, name, gs, ws)
			}
		}
	}
}
