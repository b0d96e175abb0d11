package gpu

import (
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

func smallGeom() cachesim.Geometry {
	return cachesim.Geometry{SizeBytes: 64 << 10, Ways: 16, BlockSize: 64}
}

func smallConfig() Config {
	cfg := DefaultConfig(smallGeom())
	cfg.Cores = 4
	cfg.ThreadsPerCore = 4
	cfg.Samplers = 2
	return cfg
}

// mkTrace builds a trace of n accesses striding over blocks.
func mkTrace(n, distinct int, kind stream.Kind) []stream.Access {
	tr := make([]stream.Access, n)
	for i := range tr {
		tr[i] = stream.Access{Addr: uint64(i%distinct) * 64, Kind: kind, Seq: int64(i)}
	}
	return tr
}

func TestSimulateProcessesAllAccesses(t *testing.T) {
	tr := mkTrace(5000, 700, stream.Texture)
	r := SimulateSource(stream.Pack(tr), smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != int64(len(tr)) {
		t.Errorf("processed %d accesses, want %d", r.Accesses, len(tr))
	}
	if r.LLC.Accesses != int64(len(tr)) {
		t.Errorf("LLC saw %d accesses, want %d", r.LLC.Accesses, len(tr))
	}
	if r.Cycles <= 0 || r.FPS <= 0 {
		t.Errorf("cycles=%d fps=%v", r.Cycles, r.FPS)
	}
}

func TestEmptyTrace(t *testing.T) {
	r := SimulateSource(stream.NewTrace(0), smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != 0 {
		t.Errorf("accesses = %d", r.Accesses)
	}
}

func TestShortTraceFewerChunksThanThreads(t *testing.T) {
	tr := mkTrace(10, 10, stream.Z)
	r := SimulateSource(stream.Pack(tr), smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != 10 {
		t.Errorf("processed %d of 10", r.Accesses)
	}
}

func TestDeterminism(t *testing.T) {
	tr := mkTrace(20000, 3000, stream.RT)
	a := SimulateSource(stream.Pack(tr), smallConfig(), policy.NewDRRIP(2))
	b := SimulateSource(stream.Pack(tr), smallConfig(), policy.NewDRRIP(2))
	if a.Cycles != b.Cycles || a.LLC.Misses != b.LLC.Misses {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/misses", a.Cycles, a.LLC.Misses, b.Cycles, b.LLC.Misses)
	}
}

func TestMoreMissesMoreCycles(t *testing.T) {
	// A working set that fits vs one that thrashes: the thrashing run
	// must take longer.
	fits := mkTrace(30000, 256, stream.Texture)    // 16 KB working set
	thrash := mkTrace(30000, 8192, stream.Texture) // 512 KB working set in a 64 KB LLC
	rf := SimulateSource(stream.Pack(fits), smallConfig(), policy.NewLRU())
	rt := SimulateSource(stream.Pack(thrash), smallConfig(), policy.NewLRU())
	if rf.LLC.Misses >= rt.LLC.Misses {
		t.Fatalf("setup broken: fits misses %d >= thrash misses %d", rf.LLC.Misses, rt.LLC.Misses)
	}
	if rf.Cycles >= rt.Cycles {
		t.Errorf("fewer misses should be faster: %d vs %d cycles", rf.Cycles, rt.Cycles)
	}
	if rt.DRAM.Reads == 0 {
		t.Error("thrash run produced no DRAM reads")
	}
}

func TestUncachedDisplayBypasses(t *testing.T) {
	tr := mkTrace(5000, 500, stream.Display)
	cfg := smallConfig()
	cfg.UncachedDisplay = true
	r := SimulateSource(stream.Pack(tr), cfg, policy.NewDRRIP(2))
	if r.LLC.Bypasses != r.LLC.Misses {
		t.Errorf("display accesses should all bypass: %d bypasses, %d misses", r.LLC.Bypasses, r.LLC.Misses)
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	// Writes that thrash generate writebacks, which must appear as DRAM
	// writes.
	tr := make([]stream.Access, 20000)
	for i := range tr {
		tr[i] = stream.Access{Addr: uint64(i%4096) * 64, Kind: stream.RT, Write: true}
	}
	r := SimulateSource(stream.Pack(tr), smallConfig(), policy.NewLRU())
	if r.DRAM.Writes == 0 {
		t.Error("no writebacks reached DRAM")
	}
}

func TestFewerThreadsSlower(t *testing.T) {
	tr := mkTrace(40000, 6000, stream.Texture)
	big := smallConfig()
	small := smallConfig()
	small.Cores = 1
	rb := SimulateSource(stream.Pack(tr), big, policy.NewDRRIP(2))
	rs := SimulateSource(stream.Pack(tr), small, policy.NewDRRIP(2))
	if rs.Cycles <= rb.Cycles {
		t.Errorf("1-core GPU should be slower: %d vs %d", rs.Cycles, rb.Cycles)
	}
}

func TestComputeGapDefaultsApplied(t *testing.T) {
	cfg := smallConfig()
	cfg.ComputeGap = [stream.NumKinds]int{} // all zero -> defaults
	tr := mkTrace(1000, 100, stream.Vertex)
	r := SimulateSource(stream.Pack(tr), cfg, policy.NewDRRIP(2))
	if r.Cycles < int64(DefaultComputeGap[stream.Vertex]) {
		t.Error("compute gaps apparently not applied")
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	// All-store trace: threads never wait on DRAM, so the run should be
	// much faster than an all-load trace with the same miss profile.
	loads := mkTrace(20000, 8192, stream.Texture)
	stores := make([]stream.Access, len(loads))
	copy(stores, loads)
	for i := range stores {
		stores[i].Write = true
		stores[i].Kind = stream.RT // avoid sampler path for a clean compare
	}
	loadsRT := make([]stream.Access, len(loads))
	copy(loadsRT, loads)
	for i := range loadsRT {
		loadsRT[i].Kind = stream.RT
	}
	rl := SimulateSource(stream.Pack(loadsRT), smallConfig(), policy.NewLRU())
	rs := SimulateSource(stream.Pack(stores), smallConfig(), policy.NewLRU())
	if rs.Cycles >= rl.Cycles {
		t.Errorf("store trace (%d cycles) should be faster than load trace (%d)", rs.Cycles, rl.Cycles)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero cores")
		}
	}()
	cfg := smallConfig()
	cfg.Cores = 0
	SimulateSource(stream.Pack(mkTrace(10, 10, stream.Z)), cfg, policy.NewLRU())
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(smallGeom())
	if cfg.Cores != 96 || cfg.ThreadsPerCore != 8 || cfg.Samplers != 12 {
		t.Errorf("shader array %+v", cfg)
	}
	if cfg.ClockGHz != 1.6 || cfg.LLCLatency != 20 || cfg.LLCBanks != 4 {
		t.Errorf("clocks/LLC %+v", cfg)
	}
	if cfg.Cores*cfg.ThreadsPerCore != 768 {
		t.Error("thread contexts != 768")
	}
}

func TestMSHRMergesDuplicateMisses(t *testing.T) {
	// Many threads missing on the same few blocks: MSHRs must merge the
	// concurrent fetches so DRAM reads stay well below the thread count.
	tr := make([]stream.Access, 4096)
	for i := range tr {
		tr[i] = stream.Access{Addr: uint64(i%8) * 64, Kind: stream.Texture}
	}
	cfg := smallConfig()
	r := SimulateSource(stream.Pack(tr), cfg, policy.NewLRU())
	// 8 distinct blocks: the LLC misses at most a handful of times and
	// DRAM sees no more reads than LLC misses.
	if r.DRAM.Reads > r.LLC.Misses {
		t.Errorf("DRAM reads %d exceed LLC misses %d (MSHR merge broken)", r.DRAM.Reads, r.LLC.Misses)
	}
	if r.LLC.Misses > 16 {
		t.Errorf("LLC misses = %d for an 8-block trace", r.LLC.Misses)
	}
}

func TestSecondaryMissWaitsForFill(t *testing.T) {
	// Two threads touching the same cold block: the second (a hit on an
	// in-flight line) must not complete before DRAM latency allows.
	tr := []stream.Access{
		{Addr: 0, Kind: stream.Z},
		{Addr: 0, Kind: stream.Z},
	}
	cfg := smallConfig()
	cfg.ChunkSize = 1 // force the two accesses onto different threads
	r := SimulateSource(stream.Pack(tr), cfg, policy.NewLRU())
	// The frame cannot finish before one DRAM round trip.
	if r.Cycles < 60 {
		t.Errorf("frame finished in %d cycles, before DRAM could respond", r.Cycles)
	}
}
