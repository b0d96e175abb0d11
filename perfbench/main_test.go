package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeConfig(t *testing.T, workload string, trace bool) (config, *bytes.Buffer) {
	var log bytes.Buffer
	return config{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		expected: "expected.json",
		golden:   "../internal/harness/testdata/golden.json",
		spanDir:  t.TempDir(),
		log:      &log,
	}, &log
}

// TestSmoke runs every workload for about a second, untraced and traced,
// and checks that each metric BENCHMARK.json names is reported and
// printed with its unit, and that no op fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(bj.PerLayer), len(perLayer))
	}
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			cfg, log := smokeConfig(t, w.Name, trace)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if !strings.Contains(log.String(), "fail_ratio 0,") {
				t.Errorf("%s (trace %v): fail_ratio 0 not printed", w.Name, trace)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, BENCHMARK.json names %d",
					w.Name, trace, len(rep.Metrics), len(want))
			}
			lines := strings.Split(log.String(), "\n")
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s reported as %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
					continue
				}
				printed := false
				for _, l := range lines {
					f := strings.Fields(l)
					printed = printed || len(f) == 3 && f[0] == m.Name && f[2] == m.Unit
				}
				if !printed {
					t.Errorf("%s (trace %v): %s not printed with unit %s", w.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedTableFails corrupts the pinned Figure 12 tables and checks
// that query-cold counts its exact ops as failures.
func TestCorruptedTableFails(t *testing.T) {
	want, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps() {
		want.Tables[harnessOp{exp: "fig12", app: app}.key()] = "corrupted"
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, _ := smokeConfig(t, "query-cold", false)
	cfg.expected = path
	stderrLog = &bytes.Buffer{}
	defer func() { stderrLog = os.Stderr }()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted tables: correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestSeededTraffic checks that the seed alone fixes serve-mix's request
// sequence.
func TestSeededTraffic(t *testing.T) {
	want, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	seq := func(seed int64) []string {
		s := &serveMix{b: &bench{cfg: config{seed: seed}, want: want}}
		s.initTraffic()
		var out []string
		for i := 0; i < 3*pairEvery; i++ {
			for c := 0; c < serveClients; c++ {
				r, _ := s.request(c, i)
				out = append(out, string(r.body))
			}
		}
		return out
	}
	a, b, c := seq(1), seq(1), seq(2)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("the same seed gave two request sequences")
	}
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
}

// TestPairingWithdraws checks that a client whose partner misses the
// deadline withdraws from the slot, so that both meet there next time.
func TestPairingWithdraws(t *testing.T) {
	p := pairing{waiting: map[int]chan struct{}{}}
	if p.meet(3, time.Now().Add(time.Millisecond)) {
		t.Fatal("met with no partner")
	}
	if len(p.waiting) != 0 {
		t.Fatalf("timed-out slot left waiting: %v", p.waiting)
	}
	met := make(chan bool)
	go func() { met <- p.meet(3, time.Now().Add(time.Minute)) }()
	for {
		p.mu.Lock()
		n := len(p.waiting)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !p.meet(3, time.Now().Add(time.Minute)) || !<-met {
		t.Fatal("the two clients did not meet at the slot")
	}
}
