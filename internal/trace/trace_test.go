package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
	"gspc/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	in := []stream.Access{
		{Addr: 0x1234, Kind: stream.Z, Write: true},
		{Addr: 0xdeadbeef, Kind: stream.Texture},
		{Addr: 0, Kind: stream.Display, Write: true},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Addr != in[i].Addr || out[i].Kind != in[i].Kind || out[i].Write != in[i].Write {
			t.Errorf("record %d: %+v != %+v", i, out[i], in[i])
		}
		if out[i].Seq != int64(i) {
			t.Errorf("record %d seq = %d", i, out[i].Seq)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty roundtrip: %v, %d records", err, len(out))
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOTATRACE_______")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []stream.Access{{Addr: 1}, {Addr: 2}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := Read(bytes.NewReader(raw[:len(raw)-3]))
	if err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []stream.Access{{Addr: 1, Kind: stream.Z}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 0x5f // kind 31, invalid
	_, err := Read(bytes.NewReader(raw))
	if err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []byte, writes []bool) bool {
		in := make([]stream.Access, len(addrs))
		for i, ad := range addrs {
			in[i].Addr = uint64(ad)
			if i < len(kinds) {
				in[i].Kind = stream.Kind(kinds[i] % byte(stream.NumKinds))
			}
			in[i].Write = i < len(writes) && writes[i]
		}
		var buf bytes.Buffer
		if Write(&buf, in) != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i].Addr != in[i].Addr || out[i].Kind != in[i].Kind || out[i].Write != in[i].Write {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGenerateFrameDeterministic(t *testing.T) {
	j := workload.Suite()[3]
	a := GenerateFrame(j, 0.1)
	b := GenerateFrame(j, 0.1)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestGenerateFrameSeqAssigned(t *testing.T) {
	j := workload.Suite()[0]
	tr := GenerateFrame(j, 0.1)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for i, a := range tr {
		if a.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, a.Seq)
		}
		if !a.Kind.Valid() {
			t.Fatalf("invalid kind at %d", i)
		}
	}
}

func TestGenerateFrameHasAllMajorStreams(t *testing.T) {
	j := workload.Suite()[0]
	tr := GenerateFrame(j, 0.15)
	var counts [stream.NumKinds]int
	for _, a := range tr {
		counts[a.Kind]++
	}
	for _, k := range []stream.Kind{stream.Vertex, stream.HiZ, stream.Z, stream.RT, stream.Texture, stream.Display} {
		if counts[k] == 0 {
			t.Errorf("stream %v absent from generated trace", k)
		}
	}
	// The two dominant streams of Figure 4 must dominate here too.
	tot := len(tr)
	if counts[stream.RT]+counts[stream.Texture] < tot/2 {
		t.Errorf("rt+texture = %d of %d accesses; expected the majority", counts[stream.RT]+counts[stream.Texture], tot)
	}
}

func TestCollector(t *testing.T) {
	c := &Collector{}
	c.Emit(stream.Access{Addr: 5})
	c.Emit(stream.Access{Addr: 6})
	if len(c.Accesses) != 2 || c.Accesses[1].Addr != 6 {
		t.Errorf("collector = %+v", c.Accesses)
	}
}

func TestHugeCountHeaderFailsFast(t *testing.T) {
	// A header claiming billions of records over a tiny body must error
	// quickly without attempting a giant allocation.
	var buf bytes.Buffer
	buf.Write([]byte("GSPCTRC1"))
	var hdr [8]byte
	hdr[3] = 0x40 // ~1 billion records
	buf.Write(hdr[:])
	buf.WriteString("short body")
	if _, err := Read(&buf); err == nil {
		t.Fatal("truncated huge-count trace accepted")
	}
}

// TestSizeHintsBounded records hints for 10,000 distinct scales — what a
// long-lived server sees when requests name arbitrary scales — and
// requires the hint map to stay within its cap while the latest
// recorded hint is still returned.
func TestSizeHintsBounded(t *testing.T) {
	job := workload.Suite()[0]
	for i := 1; i <= 10_000; i++ {
		scale := float64(i) / 2500
		recordSize(job, scale, 1_000_000+i)
		if got := EstimateAccesses(job, scale); got != 1_000_000+i {
			t.Fatalf("scale %g: hint %d, want %d", scale, got, 1_000_000+i)
		}
	}
	sizeHints.Lock()
	n := len(sizeHints.m)
	sizeHints.Unlock()
	if n > maxSizeHints {
		t.Errorf("%d size hints after 10,000 scales, cap %d", n, maxSizeHints)
	}
}
