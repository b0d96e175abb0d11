// Package dram models the GPU's GDDR/DDR3 memory system at the level the
// paper's performance results depend on: per-channel command/data bus
// occupancy, per-bank row-buffer state, and the tCAS/tRCD/tRP timing of
// the configured speed grade. The paper evaluates a dual-channel
// eight-way banked DDR3-1600 15-15-15 system and, in the sensitivity
// study (Figure 17), DDR3-1867 10-10-10.
package dram

import "fmt"

// Timing describes a DDR3 speed grade. Latencies are in memory (bus
// command) clock cycles.
type Timing struct {
	Name   string
	BusMHz int // command/data bus clock (DDR3-1600 -> 800 MHz)
	CAS    int // column access strobe latency
	RCD    int // row-to-column delay
	RP     int // row precharge
	Burst  int // burst length in beats (8 for DDR3)
}

// DDR3_1600 returns the paper's baseline memory timing.
func DDR3_1600() Timing {
	return Timing{Name: "DDR3-1600 15-15-15", BusMHz: 800, CAS: 15, RCD: 15, RP: 15, Burst: 8}
}

// DDR3_1867 returns the faster memory of the Figure 17 sensitivity study.
func DDR3_1867() Timing {
	return Timing{Name: "DDR3-1867 10-10-10", BusMHz: 933, CAS: 10, RCD: 10, RP: 10, Burst: 8}
}

// Config describes the memory system organization.
type Config struct {
	Timing          Timing
	Channels        int // 2 in the paper
	BanksPerChannel int // 8 in the paper
	RowBytes        int // row buffer size per bank
	// GPUClockGHz converts memory timing into GPU cycles; all Memory
	// methods speak GPU cycles.
	GPUClockGHz float64
}

// DefaultConfig returns the paper's dual-channel DDR3-1600 system paired
// with the 1.6 GHz GPU clock.
func DefaultConfig() Config {
	return Config{
		Timing:          DDR3_1600(),
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8 << 10,
		GPUClockGHz:     1.6,
	}
}

// Stats aggregates request outcomes.
type Stats struct {
	Reads, Writes int64
	RowHits       int64
	RowMisses     int64 // closed row (tRCD+tCAS)
	RowConflicts  int64 // open different row (tRP+tRCD+tCAS)
	// BusBusyCycles is the total data-bus occupancy in GPU cycles across
	// channels; divide by channels and elapsed time for utilization.
	BusBusyCycles int64
}

type bank struct {
	openRow   int64
	hasRow    bool
	busyUntil int64
}

type channel struct {
	banks    []bank
	busUntil int64
}

// Memory is the DRAM timing model. It is not safe for concurrent use;
// the GPU simulator drives it from a single event loop.
type Memory struct {
	cfg       Config
	chans     []channel
	gpuPerMem float64 // GPU cycles per memory cycle
	burstGPU  int64   // data transfer time per 64B block, GPU cycles

	Stats Stats
}

// New constructs a memory system. It panics on nonsensical configuration
// (programming error).
func New(cfg Config) *Memory {
	if cfg.Channels < 1 || cfg.BanksPerChannel < 1 || cfg.RowBytes < 64 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	m := &Memory{cfg: cfg}
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		m.chans[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	m.gpuPerMem = cfg.GPUClockGHz * 1000 / float64(cfg.Timing.BusMHz)
	// A 64-byte block moves in Burst beats on an 8-byte bus = Burst/2
	// memory clocks (DDR transfers two beats per clock).
	m.burstGPU = m.toGPU(cfg.Timing.Burst / 2)
	return m
}

func (m *Memory) toGPU(memCycles int) int64 {
	return int64(float64(memCycles)*m.gpuPerMem + 0.5)
}

// route maps a block address to its channel, bank, and row. Blocks
// interleave across channels at 64-byte granularity and across banks at
// row granularity, spreading streams over the parallel resources.
func (m *Memory) route(addr uint64) (ch *channel, bk *bank, row int64) {
	block := addr >> 6
	ci := int(block % uint64(m.cfg.Channels))
	ch = &m.chans[ci]
	rowID := addr / uint64(m.cfg.RowBytes) / uint64(m.cfg.Channels)
	bi := int(rowID % uint64(m.cfg.BanksPerChannel))
	bk = &ch.banks[bi]
	return ch, bk, int64(rowID / uint64(m.cfg.BanksPerChannel))
}

// Access services one 64-byte block transfer issued at GPU cycle `now`
// and returns the completion time in GPU cycles. Writes occupy the bank
// and bus like reads (write latency is hidden from the issuing unit by
// the LLC's writeback queue, but the bandwidth cost is real).
func (m *Memory) Access(addr uint64, now int64, write bool) int64 {
	ch, bk, row := m.route(addr)
	if write {
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}

	start := now
	if bk.busyUntil > start {
		start = bk.busyUntil
	}

	var latMem int
	switch {
	case bk.hasRow && bk.openRow == row:
		m.Stats.RowHits++
		latMem = m.cfg.Timing.CAS
	case !bk.hasRow:
		m.Stats.RowMisses++
		latMem = m.cfg.Timing.RCD + m.cfg.Timing.CAS
	default:
		m.Stats.RowConflicts++
		latMem = m.cfg.Timing.RP + m.cfg.Timing.RCD + m.cfg.Timing.CAS
	}
	bk.hasRow = true
	bk.openRow = row

	dataStart := start + m.toGPU(latMem)
	if ch.busUntil > dataStart {
		dataStart = ch.busUntil
	}
	done := dataStart + m.burstGPU
	ch.busUntil = done
	// The bank can accept a new column command once the data transfer
	// completes (a mild simplification of tCCD/tRTP interactions).
	bk.busyUntil = done
	m.Stats.BusBusyCycles += m.burstGPU
	return done
}

// PeakBandwidthGBps returns the theoretical peak across channels.
func (m *Memory) PeakBandwidthGBps() float64 {
	beats := float64(m.cfg.Timing.BusMHz) * 2e6 // DDR beats/sec
	return beats * 8 * float64(m.cfg.Channels) / 1e9
}
