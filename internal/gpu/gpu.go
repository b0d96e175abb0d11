// Package gpu is the detailed timing simulator of Section 4: a GPU with
// 96 shader cores x 8 thread contexts (768 threads), twelve fixed-
// function texture samplers, a four-banked 8 MB 16-way LLC with a
// 20-cycle load-to-use latency, and a dual-channel DDR3 memory system.
//
// The model is event-driven. The frame's LLC access trace is partitioned
// among the thread contexts in interleaved chunks (screen-space tiles are
// distributed over cores the same way); each thread alternates between
// shading work (a per-stream compute gap, scaled by the core's issue
// share) and memory accesses. Loads block the issuing thread until the
// banked LLC — and on a miss, DRAM — returns data; stores retire into the
// memory system without blocking. Rendering performance is the wall-clock
// cycle count to drain all threads, reported as frames per second.
//
// The model captures the two mechanisms the paper's performance results
// rest on: fast thread switching partially hides memory latency (so only
// substantial LLC miss savings become speedups), and the LLC is far more
// bandwidth-efficient than DRAM (so miss savings relieve the DRAM bus,
// which is the common bottleneck).
package gpu

import (
	"fmt"
	"math"
	"sync"

	"gspc/internal/cachesim"
	"gspc/internal/dram"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
)

// Config describes the simulated GPU.
type Config struct {
	// Cores and ThreadsPerCore size the shader array (96 x 8 baseline;
	// the Figure 17 sensitivity study uses 64 x 8).
	Cores          int
	ThreadsPerCore int
	// IssueWidth is the number of thread instructions a core issues per
	// cycle (two SIMD pipelines per core in the paper).
	IssueWidth int
	// Samplers is the number of fixed-function texture sampler units.
	Samplers int
	// SamplerCycles is the sampler pipeline occupancy per LLC texture
	// request (front-end filtering means each LLC request stands for a
	// batch of texel fetches).
	SamplerCycles int
	// ClockGHz is the shader/sampler clock (1.6 GHz).
	ClockGHz float64

	// LLCGeom is the last-level cache organization.
	LLCGeom cachesim.Geometry
	// LLCBanks and LLCLatency describe the banked LLC pipeline: one
	// access per bank per cycle, LLCLatency cycles load-to-use.
	LLCBanks   int
	LLCLatency int
	// UncachedDisplay bypasses the LLC for the display stream (UCD).
	UncachedDisplay bool

	// DRAM is the memory system configuration; its GPUClockGHz is
	// overridden with ClockGHz.
	DRAM dram.Config

	// ChunkSize is the number of consecutive trace accesses bound to one
	// thread before work distribution moves to the next thread — the
	// screen-tile granularity of the rasterizer's core assignment.
	ChunkSize int

	// ComputeGap is the shading work in thread-cycles preceding each
	// memory access, per stream kind. Zero entries fall back to
	// DefaultComputeGap.
	ComputeGap [stream.NumKinds]int
}

// DefaultComputeGap is the per-stream shading cost in thread cycles per
// LLC access. Each LLC access stands for many absorbed render-cache hits,
// so these are large: a texture LLC request amortizes the filtering and
// shading math of dozens of pixels.
var DefaultComputeGap = [stream.NumKinds]int{
	stream.Vertex:  320,
	stream.HiZ:     160,
	stream.Z:       200,
	stream.Stencil: 160,
	stream.RT:      260,
	stream.Texture: 420,
	stream.Display: 80,
	stream.Other:   200,
}

// DefaultConfig returns the paper's baseline GPU with the given LLC
// policy geometry.
func DefaultConfig(geom cachesim.Geometry) Config {
	return Config{
		Cores:          96,
		ThreadsPerCore: 8,
		IssueWidth:     2,
		Samplers:       12,
		SamplerCycles:  4,
		ClockGHz:       1.6,
		LLCGeom:        geom,
		LLCBanks:       4,
		LLCLatency:     20,
		DRAM:           dram.DefaultConfig(),
		ChunkSize:      64,
	}
}

// Result reports one simulated frame.
type Result struct {
	Cycles int64
	// FPS is frames per second at the configured clock for this frame.
	FPS  float64
	LLC  cachesim.Stats
	DRAM dram.Stats
	// Accesses is the number of trace accesses the model executed.
	Accesses int64
}

// SimulateSource renders one frame — its packed LLC access trace — on
// the configured GPU with the given LLC replacement policy and returns
// the timing result. The policy's state is reset by the embedded cache
// model. Threads read the trace positionally (chunk-interleaved), so the
// trace is only ever indexed — never mutated — and one packed trace can
// feed any number of concurrent simulations.
func SimulateSource(tr *stream.Trace, cfg Config, pol cachesim.Policy) Result {
	if cfg.Cores <= 0 || cfg.ThreadsPerCore <= 0 {
		panic(fmt.Sprintf("gpu: invalid shader array %dx%d", cfg.Cores, cfg.ThreadsPerCore))
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 2
	}
	for k := range cfg.ComputeGap {
		if cfg.ComputeGap[k] == 0 {
			cfg.ComputeGap[k] = DefaultComputeGap[k]
		}
	}
	cfg.DRAM.GPUClockGHz = cfg.ClockGHz

	mem := dram.New(cfg.DRAM)
	llc := cachesim.New(cfg.LLCGeom, pol)
	if cfg.UncachedDisplay {
		llc.SetBypass(stream.Display, true)
	}

	// MSHRs: outstanding demand fills indexed by block number. A thread
	// hitting a block whose fill is still in flight waits for that fill
	// instead of receiving data at the LLC pipeline latency; a second
	// miss merges rather than issuing a duplicate DRAM fetch. Entries
	// whose fill has completed are lazily reclaimed.
	mshr := mshrTables.Get().(*mshrTable)

	// The LLC's downstream is DRAM: demand fetches and writebacks are
	// issued at the simulation time of the access that triggered them.
	var now int64
	var lastFill int64 // completion of the most recent demand fetch
	llc.Downstream = stream.SinkFunc(func(a stream.Access) {
		if a.Write {
			mem.Access(a.Addr, now, true)
			return
		}
		bn := a.Addr >> 6
		if done, ok := mshr.get(bn); ok && done > now {
			lastFill = done // merge with the in-flight fill
			return
		}
		done := mem.Access(a.Addr, now, false)
		mshr.put(bn, done)
		lastFill = done
		if mshr.n > mshrSweepAt {
			mshr.sweep(now)
		}
	})

	addrs, meta := tr.Records()
	nThreads := cfg.Cores * cfg.ThreadsPerCore
	nChunks := (len(addrs) + cfg.ChunkSize - 1) / cfg.ChunkSize

	// Thread k owns chunks k, k+T, k+2T, ... ; pos tracks each thread's
	// place within its current chunk.
	chunkOf := make([]int, nThreads) // current chunk ordinal per thread
	idx := make([]int, nThreads)     // offset within current chunk

	// Shading rate: with all thread contexts busy, a core advances
	// IssueWidth threads per cycle, so a gap of g thread-cycles costs
	// g * ThreadsPerCore / IssueWidth wall cycles.
	gapScale := cfg.ThreadsPerCore / cfg.IssueWidth
	if gapScale < 1 {
		gapScale = 1
	}

	bankFree := make([]int64, cfg.LLCBanks)
	samplerFree := make([]int64, max(1, cfg.Samplers))

	// Every thread with a chunk starts at t = 0, in thread order.
	started := min(nThreads, nChunks)
	for t := 0; t < started; t++ {
		chunkOf[t] = t
	}
	q := newCalendar(nThreads)
	q.start(started)
	seq := int64(started)

	// Each iteration serves the earliest event. A thread with work left
	// is rescheduled at its resume time; a retiring thread is not.
	var cycles int64
	var accesses int64
	for {
		ev, ok := q.pop()
		if !ok {
			break
		}
		th := int(ev.thread)

		// Fetch the thread's next access, advancing through its chunks.
		pos := -1
		for chunkOf[th] < nChunks {
			p := chunkOf[th]*cfg.ChunkSize + idx[th]
			if idx[th] < cfg.ChunkSize && p < len(addrs) {
				pos = p
				break
			}
			chunkOf[th] += nThreads
			idx[th] = 0
		}
		if pos < 0 {
			// The thread retires.
			if ev.t > cycles {
				cycles = ev.t
			}
			continue
		}
		kind, write := stream.UnpackMeta(meta[pos])
		a := stream.Access{Addr: addrs[pos], Seq: int64(pos), Kind: kind, Write: write}
		idx[th]++
		accesses++

		// Shading work before the access.
		t := ev.t + int64(cfg.ComputeGap[a.Kind]*gapScale)

		// Texture requests flow through a sampler unit.
		if a.Kind == stream.Texture && cfg.Samplers > 0 {
			s := th % cfg.Samplers
			if samplerFree[s] > t {
				t = samplerFree[s]
			}
			samplerFree[s] = t + int64(cfg.SamplerCycles)
			t += int64(cfg.SamplerCycles)
		}

		// Banked LLC pipeline: one access per bank per cycle.
		b := llc.SetIndex(a.Addr) * cfg.LLCBanks / llc.Sets()
		if bankFree[b] > t {
			t = bankFree[b]
		}
		bankFree[b] = t + 1

		now = t + int64(cfg.LLCLatency)
		lastFill = 0
		hit := llc.Access(a)
		done := t + int64(cfg.LLCLatency)
		if lastFill > done {
			done = lastFill // miss: wait for the DRAM fill
		}
		if hit && !a.Write {
			// A hit on a block whose demand fill is still in flight
			// (secondary miss) delivers data when the fill lands.
			if fd, ok := mshr.get(a.Addr >> 6); ok && fd > done {
				done = fd
			}
		}

		resume := done
		if a.Write {
			// Stores retire asynchronously; the thread only pays the
			// issue slot.
			resume = t + 1
		}
		if done > cycles {
			cycles = done
		}
		q.push(event{t: resume, seq: seq, thread: int32(th)})
		seq++
	}

	fps := 0.0
	if cycles > 0 {
		fps = cfg.ClockGHz * 1e9 / float64(cycles)
	}
	// Fold this simulation's LLC and DRAM outcomes into the process-wide
	// telemetry counters — once per simulation, never per access.
	for _, k := range stream.Kinds() {
		telemetry.RecordLLCStream(k.String(), llc.Stats.KindAccesses[k], llc.Stats.KindHits[k])
	}
	telemetry.RecordDRAM(mem.Stats.Reads, mem.Stats.Writes, mem.Stats.RowHits, mem.Stats.RowMisses, mem.Stats.RowConflicts)
	mshr.reset()
	mshrTables.Put(mshr)
	return Result{
		Cycles:   cycles,
		FPS:      fps,
		LLC:      llc.Stats,
		DRAM:     mem.Stats,
		Accesses: accesses,
	}
}

// mshrSweepAt is the MSHR occupancy above which an insertion reclaims
// every entry whose fill has completed by the current time. The
// simulation time of successive DRAM requests is not monotonic — it
// includes each thread's own compute gap — so an entry reclaimed at a
// sweep could still have been "in flight" for a later, earlier-timed
// lookup. Which entries exist is therefore part of the model: the sweep
// points and their cut-off are fixed, not a tuning knob.
const mshrSweepAt = 4096

// mshrSlot is one MSHR entry. key is the block number plus one, so the
// zero slot is free and a fresh or cleared array is an empty table.
type mshrSlot struct {
	key  uint64
	done int64
}

// mshrTable maps block numbers to demand-fill completion times. It is an
// open-addressed hash table with linear probing that behaves exactly as
// a map[uint64]int64 would under get, put (insert or overwrite) and
// sweep (delete every entry done by a time). Sweeps and growth rebuild
// the live entries into the second slot array and swap the two, so no
// tombstones accumulate and steady-state operation allocates nothing.
type mshrTable struct {
	slots []mshrSlot // power-of-two length, at most 3/4 full
	spare []mshrSlot // rebuild target; same length as slots once used
	shift uint       // 64 - log2(len(slots)), for Fibonacci hashing
	n     int        // live entries
}

// mshrInitialSlots is the initial slot count, a power of two that holds
// a full table (mshrSweepAt entries) at half load.
const mshrInitialSlots = 1 << 13

func newMSHRTable() *mshrTable {
	m := &mshrTable{}
	m.setSlots(make([]mshrSlot, mshrInitialSlots))
	return m
}

// mshrTables recycles tables, and their spare arrays, across
// simulations. An emptied table behaves as a new one even if it grew:
// the sweep points depend on the entry count, not the slot count.
var mshrTables = sync.Pool{New: func() any { return newMSHRTable() }}

// reset empties the table, keeping both slot arrays.
func (m *mshrTable) reset() {
	clear(m.slots)
	m.n = 0
}

// setSlots makes slots the live array and derives its hash shift.
func (m *mshrTable) setSlots(slots []mshrSlot) {
	m.slots = slots
	m.shift = 64
	for l := len(slots); l > 1; l >>= 1 {
		m.shift--
	}
}

// slot returns the slot holding key, or the free slot where the probe
// for key ends.
func (m *mshrTable) slot(key uint64) *mshrSlot {
	mask := uint64(len(m.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> m.shift; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// get returns the fill time recorded for block, if any.
func (m *mshrTable) get(block uint64) (int64, bool) {
	s := m.slot(block + 1)
	return s.done, s.key != 0
}

// put records done as block's fill time, replacing any earlier entry.
func (m *mshrTable) put(block uint64, done int64) {
	s := m.slot(block + 1)
	if s.key == 0 {
		s.key = block + 1
		m.n++
	}
	s.done = done
	if 4*m.n > 3*len(m.slots) {
		m.rebuild(2*len(m.slots), math.MinInt64)
	}
}

// sweep deletes every entry whose fill completed at or before now.
func (m *mshrTable) sweep(now int64) {
	m.rebuild(len(m.slots), now)
}

// rebuild moves the entries with done > keepAfter into the spare array,
// sized to size slots, and makes it the live one.
func (m *mshrTable) rebuild(size int, keepAfter int64) {
	old := m.slots
	if len(m.spare) == size {
		clear(m.spare)
	} else {
		m.spare = make([]mshrSlot, size)
	}
	m.setSlots(m.spare)
	m.spare = old
	m.n = 0
	for _, s := range old {
		if s.key != 0 && s.done > keepAfter {
			*m.slot(s.key) = s
			m.n++
		}
	}
}
