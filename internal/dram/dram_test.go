package dram

import (
	"testing"
	"testing/quick"
)

func testConfig() Config {
	c := DefaultConfig()
	return c
}

func TestTimingGrades(t *testing.T) {
	g1600 := DDR3_1600()
	if g1600.BusMHz != 800 || g1600.CAS != 15 || g1600.RCD != 15 || g1600.RP != 15 || g1600.Burst != 8 {
		t.Errorf("DDR3-1600 = %+v", g1600)
	}
	g1867 := DDR3_1867()
	if g1867.BusMHz != 933 || g1867.CAS != 10 {
		t.Errorf("DDR3-1867 = %+v", g1867)
	}
}

func TestPeakBandwidth(t *testing.T) {
	m := New(testConfig())
	// Dual channel DDR3-1600: 2 x 12.8 GB/s.
	if bw := m.PeakBandwidthGBps(); bw < 25.5 || bw > 25.7 {
		t.Errorf("peak bandwidth = %v GB/s, want ~25.6", bw)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	m := New(testConfig())
	// First access: closed row (tRCD+tCAS).
	t0 := m.Access(0, 0, false)
	// Same row, same channel (blocks interleave across channels, so the
	// next same-channel block is +128): row hit.
	t1 := m.Access(128, t0, false)
	hitLat := t1 - t0
	// Different row, same bank: conflict.
	conflictAddr := uint64(testConfig().RowBytes * testConfig().Channels * testConfig().BanksPerChannel)
	_ = conflictAddr
	// Find an address on the same channel+bank but another row: row id
	// advances by channels*banks rows.
	rowStride := uint64(testConfig().RowBytes) * uint64(testConfig().Channels) * uint64(testConfig().BanksPerChannel)
	t2 := m.Access(rowStride, t1, false)
	conflictLat := t2 - t1
	if hitLat >= conflictLat {
		t.Errorf("row hit latency %d >= conflict latency %d", hitLat, conflictLat)
	}
	if m.Stats.RowHits != 1 || m.Stats.RowMisses != 1 || m.Stats.RowConflicts != 1 {
		t.Errorf("stats %+v", m.Stats)
	}
}

func TestChannelInterleave(t *testing.T) {
	m := New(testConfig())
	// Adjacent blocks go to different channels: simultaneous requests
	// should not serialize on one data bus.
	d0 := m.Access(0, 0, false)
	d1 := m.Access(64, 0, false)
	// Both start at 0 on separate channels; completion times are equal.
	if d0 != d1 {
		t.Errorf("parallel channel accesses completed at %d and %d", d0, d1)
	}
	// Same-channel requests serialize on the data bus.
	m2 := New(testConfig())
	e0 := m2.Access(0, 0, false)
	e1 := m2.Access(128, 0, false) // same channel (block 2)
	if e1 <= e0 {
		t.Error("same-channel access did not queue behind the bus")
	}
}

func TestWritesCountAndOccupy(t *testing.T) {
	m := New(testConfig())
	m.Access(0, 0, true)
	if m.Stats.Writes != 1 || m.Stats.Reads != 0 {
		t.Errorf("stats %+v", m.Stats)
	}
	if m.Stats.BusBusyCycles <= 0 {
		t.Error("write consumed no bus cycles")
	}
}

func TestLatencyMath(t *testing.T) {
	m := New(testConfig())
	// GPU at 1.6 GHz, bus at 800 MHz: 2 GPU cycles per memory cycle.
	// Closed-row read: (tRCD+tCAS)=30 mem cycles = 60 GPU cycles, plus
	// the 8-GPU-cycle burst.
	done := m.Access(0, 0, false)
	if done != 68 {
		t.Errorf("closed-row completion = %d, want 68", done)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero channels")
		}
	}()
	New(Config{Channels: 0, BanksPerChannel: 8, RowBytes: 8192, Timing: DDR3_1600(), GPUClockGHz: 1.6})
}

// Property: completion times never precede issue times and are monotone
// for serialized same-bank requests.
func TestCompletionMonotoneProperty(t *testing.T) {
	f := func(addrs []uint16, gaps []uint8) bool {
		m := New(testConfig())
		now := int64(0)
		var lastSameBank int64
		for i, ad := range addrs {
			if i < len(gaps) {
				now += int64(gaps[i])
			}
			done := m.Access(uint64(ad)*64, now, i%4 == 0)
			if done < now {
				return false
			}
			_ = lastSameBank
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: total bus busy cycles equal burst time x number of requests.
func TestBusAccountingProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := New(testConfig())
		for i := 0; i < int(n); i++ {
			m.Access(uint64(i)*64, 0, false)
		}
		return m.Stats.BusBusyCycles == int64(n)*8 // 4 mem cycles = 8 GPU cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
