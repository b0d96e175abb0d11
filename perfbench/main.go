// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints every
// metric by name with its unit, then, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload figures-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the workload twice (untraced, then with
// spans recorded around every layer boundary), replays the workload's
// packed traces through each simulation layer's public constructors, and
// reports the per-layer metrics instead. README.md lists the workloads,
// the metrics and which end-to-end metric each per-layer metric should
// move.
//
// Every op's result table is compared bit for bit against the tables
// pinned in expected.json; a mismatch counts as a failed op.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// stderrLog receives diagnostics: failed ops and checks.
var stderrLog io.Writer = os.Stderr

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// expected is the pinned-expectations file; golden the harness's own
	// golden tables, cross-checked at set-up.
	expected string
	golden   string
	// spanDir receives the traced run's spans.
	spanDir string
	// log receives the human-readable metric lines.
	log io.Writer
	// generate, when set, names the file -generate writes the pinned
	// expectations to; nothing is measured.
	generate string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef names one workload. why records the reason it is part of
// the benchmark: the layers it exercises and the ones it bypasses.
type workloadDef struct {
	name  string
	why   string
	setup func(b *bench) (session, error)
}

var workloads = []workloadDef{
	{
		name: "figures-warm",
		why: "the reproduction loop over a warm trace cache: replay and the timing model do the op work, " +
			"synthesis lands in set-up",
		setup: setupFiguresWarm,
	},
	{
		name: "query-cold",
		why: "first queries for unseen configurations: synthesis dominates, the timing model never runs, " +
			"every fourth op takes the sampled-fidelity path",
		setup: setupQueryCold,
	},
	{
		name: "serve-mix",
		why: "two engines behind a coordinator on loopback: HTTP, admission, the result cache, coalescing, " +
			"forwarding and replication do the work; simulation only on first-time keys",
		setup: setupServeMix,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.generate != "" {
		if err := generateExpected(cfg.golden, cfg.generate); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{log: os.Stdout}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives op order and the request sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	fs.StringVar(&cfg.expected, "expected", "perfbench/expected.json", "pinned expected tables")
	fs.StringVar(&cfg.golden, "golden", "internal/harness/testdata/golden.json", "harness golden tables")
	fs.StringVar(&cfg.spanDir, "span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	fs.StringVar(&cfg.generate, "generate", "", "regenerate the pinned expectations into this file and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.generate != "" {
		return cfg, nil
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// bench is the state shared by set-up and the measured windows of one
// invocation.
type bench struct {
	cfg  config
	want *expected
	// failures collects every correctness problem that is not an op:
	// guard metrics that moved, set-up checks.
	failures []string
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(stderrLog, "perfbench: check failed:", msg)
}

// setUp loads the pinned expectations, cross-checks the goldens and sets
// the workload up.
func (b *bench) setUp(def workloadDef) (session, error) {
	want, err := loadExpected(b.cfg.expected)
	if err != nil {
		return nil, err
	}
	b.want = want
	if err := checkGolden(b.cfg.golden); err != nil {
		return nil, err
	}
	s, err := def.setup(b)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return s, nil
}

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupReps = 3

// run sets the workload up, measures it, and builds the report. An
// untraced run spreads its set-ups over the run — one before the measured
// window, one between its two halves and one after it — so that setup_s
// does not rest on the host's speed at a single moment. Only the first
// set-up's session is measured; the others are closed at once.
func run(cfg config) (*report, error) {
	start := time.Now()
	def, _ := workloadByName(cfg.workload)
	fmt.Fprintf(cfg.log, "# %s: %s\n", def.name, def.why)
	b := &bench{cfg: cfg}
	sess, err := b.setUp(def)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	setups := []float64{time.Since(start).Seconds()}

	rep := &report{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	var w *window
	if cfg.trace {
		w, err = traceRun(b, sess, put)
		if err != nil {
			return nil, err
		}
	} else {
		half := time.Duration(cfg.seconds * float64(time.Second) / (setupReps - 1))
		w = &window{}
		for len(setups) < setupReps {
			w.add(measure(sess, half, nil))
			t0 := time.Now()
			extra, err := b.setUp(def)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			extra.close()
		}
		endToEnd(cfg.log, w, put)
		put("setup_s", "s", median(setups))
		fmt.Fprintf(cfg.log, "# setup_s over %d set-ups: %s\n", len(setups), fmtList(setups))
	}
	rep.Attempted = int64(len(w.ops))
	for _, o := range w.ops {
		if !o.ok {
			rep.Failed++
		}
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no op completed in the measured window")
	}
	rep.Correct = rep.Failed == 0 && len(b.failures) == 0
	printMetrics(cfg.log, rep)
	fmt.Fprintf(cfg.log, "# %s seed %d: attempted %d, failed %d, fail_ratio %g, checks failed %d\n",
		cfg.workload, cfg.seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), len(b.failures))
	return rep, nil
}

// endToEnd derives the end-to-end metrics from one measured window.
func endToEnd(log io.Writer, w *window, put func(name, unit string, v float64)) {
	var all, light, heavy []float64
	var good int
	var simAcc int64
	for _, o := range w.ops {
		if !o.ok {
			continue
		}
		good++
		simAcc += o.simAccesses
		all = append(all, o.ms)
		switch o.class {
		case classLight:
			light = append(light, o.ms)
		case classHeavy:
			heavy = append(heavy, o.ms)
		}
	}
	secs := w.elapsed.Seconds()
	put("ops_per_s", "ops/s", float64(good)/secs)
	put("op_p50_ms", "ms", quantile(all, 0.5))
	put("op_p90_ms", "ms", quantile(all, 0.9))
	put("light_p50_ms", "ms", quantile(light, 0.5))
	put("heavy_p50_ms", "ms", quantile(heavy, 0.5))
	put("sim_maccess_per_s", "M/s", float64(simAcc)/secs/1e6)
	put("alloc_mb_per_op", "MB", float64(w.allocBytes)/float64(max(good, 1))/1e6)
	put("peak_heap_mb", "MB", float64(w.peakLive)/1e6)
	beyond := len(all) - int(0.9*float64(len(all)))
	fmt.Fprintf(log, "# %d ops in %.3f s: %d light, %d heavy; %d samples beyond op_p90_ms\n",
		len(all), secs, len(light), len(heavy), beyond)
	if beyond < minTail {
		fmt.Fprintf(stderrLog, "perfbench: warning: op_p90_ms rests on %d samples beyond it, fewer than %d\n", beyond, minTail)
	}
}

// minTail is the fewest samples beyond op_p90_ms a run should hold.
const minTail = 10

func printMetrics(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
