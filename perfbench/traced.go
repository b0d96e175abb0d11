package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// perLayer lists every per-layer metric the traced run reports, with its
// unit, in BENCHMARK.json's order. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = func() [][2]string {
	m := [][2]string{
		{"workload.build_ms", "ms"},
		{"pipeline.render_ns_per_llc_access", "ns"},
		{"rendercache.llc_per_request", "ratio"},
		{"trace.pack_ns_per_access", "ns"},
		{"trace.accesses_per_frame", "count"},
		{"tracecache.hit_ns", "ns"},
		{"tracecache.hit_ratio", "ratio"},
	}
	for _, p := range replayPolicies {
		m = append(m, [2]string{"replay.ns_per_access." + p.name, "ns"})
	}
	m = append(m,
		[2]string{"replay.ns_per_access.Belady", "ns"},
		[2]string{"belady.nextuse_ns_per_access", "ns"},
		[2]string{"analysis.observer_ns_per_access", "ns"},
		[2]string{"replay.allocs_per_access", "allocs"},
		[2]string{"replay.sampled_ns_per_record", "ns"},
	)
	for _, p := range replayPolicies {
		m = append(m, [2]string{"replay.miss_ratio." + p.name, "ratio"})
	}
	m = append(m, [2]string{"replay.miss_ratio.Belady", "ratio"})
	for _, p := range gpuPolicies {
		m = append(m, [2]string{"gpu.ns_per_access." + p.name, "ns"})
	}
	m = append(m,
		[2]string{"gpu.allocs_per_access", "allocs"},
		[2]string{"gpu.cycles_per_frame", "cycles"},
		[2]string{"dram.row_hit_ratio", "ratio"},
		[2]string{"paper_abs_err", "ratio"},
		[2]string{"harness.unattributed_share", "ratio"},
		[2]string{"service.self_ms.hit", "ms"},
		[2]string{"service.self_ms.miss", "ms"},
		[2]string{"service.queue_wait_ms", "ms"},
		[2]string{"service.run_ms", "ms"},
		[2]string{"service.result_cache_hit_ratio", "ratio"},
		[2]string{"service.coalesced_ratio", "ratio"},
		[2]string{"cluster.forward_self_ms.hit", "ms"},
		[2]string{"cluster.client_self_ms.hit", "ms"},
		[2]string{"cluster.forward_self_ms.miss", "ms"},
		[2]string{"cluster.replica_put_ms", "ms"},
		[2]string{"bench.trace_overhead", "ratio"},
	)
	return m
}()

// BENCH_PR8.json's DRRIP replay costs per access: BenchmarkLLCAccessDRRIP
// (slice replay, 4380093 ns/op) and BenchmarkLLCAccessDRRIPPacked
// (4706945 ns/op), both over one 95461-access frame.
const (
	pr8SliceNs  = 4380093.0 / 95461
	pr8PackedNs = 4706945.0 / 95461
)

// traceRun measures the workload untraced and then traced for a quarter
// of the run each, runs the layer probes, and reports every per-layer
// metric. Metrics a workload does not exercise are reported as 0 and
// listed on a comment line.
func traceRun(b *bench, s session, put func(name, unit string, v float64)) (*window, error) {
	d := time.Duration(max(b.cfg.seconds/4, 1) * float64(time.Second))
	plain := measure(s, d, nil)
	rec := newRecorder()
	traced := measure(s, d, rec)

	spec := s.probes()
	pr, err := runProbes(spec, rec)
	if err != nil {
		return nil, err
	}
	b.checkGuards(spec, pr.guards)

	got := map[string]float64{}
	set := func(name string, v float64) { got[name] = v }
	for k, v := range pr.guards {
		set(k, v)
	}
	for k, v := range pr.timings {
		set(k, v)
	}
	set("bench.trace_overhead", 1-opsPerSecond(traced)/opsPerSecond(plain))
	s.layerMetrics(traced, rec, pr, set)

	var missing []string
	for _, m := range perLayer {
		v, ok := got[m[0]]
		if !ok {
			missing = append(missing, m[0])
		}
		put(m[0], m[1], v)
	}
	if len(missing) > 0 {
		fmt.Fprintf(b.cfg.log, "# not exercised by %s (reported as 0): %s\n", b.cfg.workload, strings.Join(missing, " "))
	}
	fmt.Fprintf(b.cfg.log, "# untraced %.2f ops/s, traced %.2f ops/s\n", opsPerSecond(plain), opsPerSecond(traced))
	drripNs := pr.timings["replay.ns_per_access.DRRIP"]
	verdict := "does not trail"
	if drripNs > pr8SliceNs {
		verdict = "trails"
	}
	fmt.Fprintf(b.cfg.log, "# packed DRRIP replay: %.2f ns/access (median of %d over %d apps); it %s BENCH_PR8's slice replay, %.2f ns/access (packed %.2f)\n",
		drripNs, replayReps, len(pr.lengths), verdict, pr8SliceNs, pr8PackedNs)
	if err := rec.dump(b.cfg.spanDir, fmt.Sprintf("%s-seed%d.json", b.cfg.workload, b.cfg.seed)); err != nil {
		return nil, err
	}
	return &window{ops: append(plain.ops, traced.ops...)}, nil
}

func opsPerSecond(w *window) float64 {
	n := 0
	for _, o := range w.ops {
		if o.ok {
			n++
		}
	}
	return float64(n) / w.elapsed.Seconds()
}

// fanOutWorkers is the harness's per-op worker budget: min(GOMAXPROCS, 4).
func fanOutWorkers() float64 { return float64(min(runtime.GOMAXPROCS(0), 4)) }

// attributedNs is the probe time of the layers one single-app op runs:
// the frame's trace (a cache hit, or its synthesis when cold) and one
// replay or timing simulation per policy of the experiment. Every
// harness replay attaches the analysis observer, so each replay also
// carries the observer's cost.
func attributedNs(exp, app string, pr *probeResult, cold bool) float64 {
	ns := pr.hitNs
	if cold {
		ns = pr.synthNs[app]
	}
	replay := func(p string) { ns += pr.replayNs[app][p] + pr.observerNs[app] }
	switch exp {
	case "fig1", "fig5":
		replay("DRRIP")
		replay("NRU")
		replay("Belady")
		ns += pr.nextUseNs[app]
	case "fig12":
		for _, p := range replayPolicies {
			replay(p.name)
		}
	case "fig15":
		for _, p := range gpuPolicies {
			ns += pr.timingNs[app][p.name]
		}
	}
	return ns
}

// unattributed is 1 − Σ attributed / Σ (wall × workers) over a set of
// (label "exp/app", wall ms) pairs.
func unattributed(ops []op, pr *probeResult, cold bool) float64 {
	var attr, wall float64
	for _, o := range ops {
		exp, app, ok := strings.Cut(o.label, "/")
		if !ok || !o.ok {
			continue
		}
		attr += attributedNs(exp, app, pr, cold)
		wall += o.ms * 1e6 * fanOutWorkers()
	}
	if wall == 0 {
		return 0
	}
	return 1 - attr/wall
}

func (s *figuresWarm) layerMetrics(w *window, rec *recorder, pr *probeResult, put func(string, float64)) {
	put("tracecache.hit_ratio", s.last.hitRatio())
	put("harness.unattributed_share", unattributed(w.ops, pr, false))
}

func (s *queryCold) layerMetrics(w *window, rec *recorder, pr *probeResult, put func(string, float64)) {
	put("tracecache.hit_ratio", s.last.hitRatio())
	var exact []op
	for _, o := range w.ops {
		if !strings.HasPrefix(o.label, "sampled/") {
			exact = append(exact, o)
		}
	}
	put("harness.unattributed_share", unattributed(exact, pr, true))
}

func (s *serveMix) layerMetrics(w *window, rec *recorder, pr *probeResult, put func(string, float64)) {
	put("tracecache.hit_ratio", s.last.hitRatio())
	spans, byTrace := rec.resolve()
	kids := map[int][]int{}
	for i, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	// child returns span i's first child of the given layer.
	child := func(i int, name string) (int, bool) {
		for _, k := range kids[i] {
			if spans[k].Name == name {
				return k, true
			}
		}
		return -1, false
	}
	self := func(i int) float64 { return selfMs(spans, i, kids[i]) }
	var runs []op
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var memberRuns, memberHits, replies, coalesced int
	for _, idx := range byTrace {
		client := -1
		for _, i := range idx {
			if spans[i].Name == "client" {
				client = i
				break
			}
		}
		if client < 0 {
			continue
		}
		replies++
		class, how, _ := strings.Cut(spans[client].Label, "/")
		if how == "coalesced" {
			coalesced++
			continue
		}
		coord, hasCoord := child(client, "coordinator")
		member, hasMember := child(coord, "member.run")
		if hasMember {
			memberRuns++
			if spans[member].Label == "hit" {
				memberHits++
			}
		}
		switch class {
		case classLight:
			if hasCoord && hasMember {
				add("service.self_ms.hit", self(member))
				add("cluster.forward_self_ms.hit", self(coord))
				add("cluster.client_self_ms.hit", self(client))
			}
		case classHeavy:
			run, hasRun := child(member, "engine.run")
			if hasCoord && hasMember && hasRun {
				r, m := spans[run], spans[member]
				wait := float64(r.Start-m.Start) / 1e6
				add("service.run_ms", r.ms())
				add("service.queue_wait_ms", wait)
				// The member's self time less the queue wait, which is
				// reported on its own.
				add("service.self_ms.miss", self(member)-wait)
				add("cluster.forward_self_ms.miss", self(coord))
				runs = append(runs, op{label: r.Label, ms: r.ms(), ok: true})
			}
			for _, k := range kids[coord] {
				if spans[k].Name == "member.replica" {
					add("cluster.replica_put_ms", spans[k].ms())
				}
			}
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		put(n, median(vals[n]))
	}
	put("service.result_cache_hit_ratio", float64(memberHits)/float64(max(memberRuns, 1)))
	put("service.coalesced_ratio", float64(coalesced)/float64(max(replies, 1)))
	put("harness.unattributed_share", unattributed(runs, pr, false))
}
