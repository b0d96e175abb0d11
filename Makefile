# Developer entry points for the gspc reproduction.

GO ?= go

# PR stamps the bench capture file: `make bench PR=<n>` writes
# BENCH_PR<n>.json (also settable via the PR environment variable). It
# has no default, so a bare `make bench` stops with a usage line instead
# of overwriting a committed capture.

# Benchmarks captured by `make bench` into BENCH_PR$(PR).json. Fig1 runs
# first so the figure benches that follow measure the warm-trace-cache
# path (the deployment steady state); Fig13 is the gated figure that
# replays with the analysis tracker attached; the micro benches isolate
# the synthesis, replay and timing-model stages;
# BenchmarkLLCAccess*Packed is one packed-trace replay bench per policy
# the figures run.
BENCHES = BenchmarkFig1$$|BenchmarkFig12$$|BenchmarkFig13$$|BenchmarkFig12SampledS1$$|BenchmarkFig12ExactQuarter$$|BenchmarkFig15$$|BenchmarkTraceGeneration$$|BenchmarkTraceGenerationPacked$$|BenchmarkLLCAccess[A-Za-z]+Packed$$|BenchmarkLLCAccessDRRIPSampled$$|BenchmarkGPUSimulate$$

# BenchmarkTraceCacheWarm times one warm trace-cache lookup (~70 ns). At
# the 3x of BENCHES a sample would time the benchmark timer instead, so
# it runs in a second `go test` pass at a fixed count; benchjson reads
# the two passes' concatenated output as one.
BENCH_PASSES = $(GO) test -run '^$$' -bench '$(BENCHES)' -benchtime 3x . && \
	$(GO) test -run '^$$' -bench 'BenchmarkTraceCacheWarm$$' -benchtime 1000000x .

# bench-capture pipes through a prebuilt benchjson ($(BENCHJSON)) when
# one is given — CI builds the tool once from the PR head, then benches
# both sides of the merge base with the same binary.
BENCHJSON ?= $(GO) run ./cmd/benchjson

.PHONY: all build test race bench bench-capture bench-compare soak

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/tracecache/ ./internal/harness/ ./internal/service/ ./internal/pipeline/ ./internal/trace/

bench:
	@test -n "$(PR)" || { echo "usage: make bench PR=<n>  (writes BENCH_PR<n>.json)" >&2; exit 2; }
	{ $(BENCH_PASSES); } \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -pr $(PR) -label "$(shell git rev-parse --short HEAD 2>/dev/null)" \
		> BENCH_PR$(PR).json

# bench-capture writes an unstamped capture to OUT (default bench.json)
# for the CI perf gate, which benches the merge base and the head
# back-to-back on the same runner and diffs the two captures.
bench-capture:
	{ $(BENCH_PASSES); } \
		| tee /dev/stderr \
		| $(BENCHJSON) > $(or $(OUT),bench.json)

# bench-compare diffs two captures and fails on a >5% ns/op regression:
# `make bench-compare BASE=BENCH_PR6.json CAND=BENCH_PR7.json`.
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BASE) $(CAND)

# soak runs the CI-shaped network-weather soak locally: 90 seconds of
# seeded traffic/fault weather with leak and partial-deadlock checks,
# under the race detector.
soak:
	$(GO) run -race ./cmd/gspc-swarm -soak -duration 90s -seed 1 -nodes 3
