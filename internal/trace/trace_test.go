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
	if err := WriteTrace(&buf, stream.Pack(in)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(in) {
		t.Fatalf("len = %d, want %d", out.Len(), len(in))
	}
	for i, a := range in {
		a.Seq = int64(i)
		if got := out.At(i); got != a {
			t.Errorf("record %d: %+v != %+v", i, got, a)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, stream.NewTrace(0)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty roundtrip: %v, %d records", err, out.Len())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE_______")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, stream.Pack([]stream.Access{{Addr: 1}, {Addr: 2}})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := ReadTrace(bytes.NewReader(raw[:len(raw)-3]))
	if err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, stream.Pack([]stream.Access{{Addr: 1, Kind: stream.Z}})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 0x5f // kind 31, invalid
	_, err := ReadTrace(bytes.NewReader(raw))
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
		if WriteTrace(&buf, stream.Pack(in)) != nil {
			return false
		}
		out, err := ReadTrace(&buf)
		if err != nil || out.Len() != len(in) {
			return false
		}
		for i := range in {
			if out.Addr(i) != in[i].Addr || out.KindAt(i) != in[i].Kind || out.WriteAt(i) != in[i].Write {
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
	a := GeneratePacked(j, 0.1)
	b := GeneratePacked(j, 0.1)
	if a.Len() != b.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Len(), b.Len())
	}
	aAddrs, aMeta := a.Records()
	bAddrs, bMeta := b.Records()
	for i := range aAddrs {
		if aAddrs[i] != bAddrs[i] || aMeta[i] != bMeta[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestGenerateFrameHasAllMajorStreams(t *testing.T) {
	j := workload.Suite()[0]
	tr := GeneratePacked(j, 0.15)
	var counts [stream.NumKinds]int
	for i := 0; i < tr.Len(); i++ {
		k := tr.KindAt(i)
		if !k.Valid() {
			t.Fatalf("invalid kind %d at %d", k, i)
		}
		counts[k]++
	}
	for _, k := range []stream.Kind{stream.Vertex, stream.HiZ, stream.Z, stream.RT, stream.Texture, stream.Display} {
		if counts[k] == 0 {
			t.Errorf("stream %v absent from generated trace", k)
		}
	}
	// The two dominant streams of Figure 4 must dominate here too.
	tot := tr.Len()
	if counts[stream.RT]+counts[stream.Texture] < tot/2 {
		t.Errorf("rt+texture = %d of %d accesses; expected the majority", counts[stream.RT]+counts[stream.Texture], tot)
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
	if _, err := ReadTrace(&buf); err == nil {
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
