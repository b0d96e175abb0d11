// Package gspc is a from-scratch reproduction of "Efficient Management of
// Last-level Caches in Graphics Processors for 3D Scene Rendering
// Workloads" (Gaur, Srinivasan, Subramoney, Chaudhuri; MICRO 2013).
//
// The repository contains the paper's contribution — the graphics
// stream-aware probabilistic caching (GSPC) family of GPU last-level
// cache policies (internal/core) — together with every substrate needed
// to evaluate it: a set-associative cache simulator with pluggable
// policies (internal/cachesim), the baseline policies NRU, LRU, SRRIP,
// DRRIP, GS-DRRIP and SHiP-mem (internal/policy), Belady's
// optimal policy (internal/belady), a Direct3D-style rendering pipeline
// and render-cache complex that synthesize the 52-frame DirectX workload
// suite (internal/pipeline, internal/rendercache, internal/workload), a
// DDR3 memory model (internal/dram), an event-driven GPU timing
// simulator (internal/gpu), and a harness that regenerates every figure
// and table of the paper's evaluation (internal/harness).
//
// Start with the gspcsim command:
//
//	go run ./cmd/gspcsim -list
//	go run ./cmd/gspcsim -exp fig12
//
// or the examples under examples/. DESIGN.md documents the architecture
// and the substitutions made for the paper's proprietary infrastructure;
// EXPERIMENTS.md records paper-versus-measured results for every
// experiment.
package gspc
