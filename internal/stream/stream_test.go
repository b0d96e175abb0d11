package stream

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Vertex:  "vertex",
		HiZ:     "hiz",
		Z:       "z",
		Stencil: "stencil",
		RT:      "rt",
		Texture: "texture",
		Display: "display",
		Other:   "other",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind string = %q", got)
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("kind %v should be valid", k)
		}
	}
	if Kind(NumKinds).Valid() {
		t.Error("NumKinds must not be a valid kind")
	}
}

func TestKindsCoversAll(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(NumKinds) {
		t.Fatalf("Kinds() returned %d kinds, want %d", len(ks), NumKinds)
	}
	for i, k := range ks {
		if int(k) != i {
			t.Errorf("Kinds()[%d] = %v", i, k)
		}
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Addr: 0x1000, Kind: Z, Write: true}
	if got := a.String(); got != "z W 0x1000" {
		t.Errorf("Access.String() = %q", got)
	}
	a.Write = false
	if got := a.String(); got != "z R 0x1000" {
		t.Errorf("Access.String() = %q", got)
	}
}

func TestSinkFunc(t *testing.T) {
	var got []Access
	s := SinkFunc(func(a Access) { got = append(got, a) })
	s.Emit(Access{Addr: 1})
	s.Emit(Access{Addr: 2})
	if len(got) != 2 || got[0].Addr != 1 || got[1].Addr != 2 {
		t.Errorf("SinkFunc recorded %v", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Emit(Access{Kind: Z})
	c.Emit(Access{Kind: Z})
	c.Emit(Access{Kind: Texture})
	if c.Total != 3 || c.ByKind[Z] != 2 || c.ByKind[Texture] != 1 {
		t.Errorf("counter state: %+v", c)
	}
}

// Property: a Counter's total always equals the sum of its per-kind
// counts, for any access sequence.
func TestCounterTotalProperty(t *testing.T) {
	f := func(kinds []byte) bool {
		var c Counter
		for _, kb := range kinds {
			c.Emit(Access{Kind: Kind(kb % byte(NumKinds))})
		}
		var sum int64
		for _, v := range c.ByKind {
			sum += v
		}
		return sum == c.Total && c.Total == int64(len(kinds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTracePackProperty holds the packed representation lossless for
// arbitrary accesses — full 64-bit addresses, every kind, both write
// flags — through every accessor, and checks that a buffer refilled
// after Reset and Grow holds exactly the new records and keeps its
// capacity.
func TestTracePackProperty(t *testing.T) {
	holds := func(tr *Trace, accs []Access) bool {
		addrs, meta := tr.Records()
		if tr.Len() != len(accs) || len(addrs) != len(accs) || len(meta) != len(accs) {
			return false
		}
		for i, a := range accs {
			k, w := UnpackMeta(meta[i])
			want := Access{Addr: a.Addr, Seq: int64(i), Kind: a.Kind, Write: a.Write}
			if tr.At(i) != want || tr.Addr(i) != a.Addr || tr.KindAt(i) != a.Kind || tr.WriteAt(i) != a.Write ||
				addrs[i] != a.Addr || meta[i] != PackMeta(a.Kind, a.Write) || k != a.Kind || w != a.Write {
				return false
			}
		}
		return true
	}
	f := func(accs, refill []Access) bool {
		for _, s := range [][]Access{accs, refill} {
			for i := range s {
				s[i].Kind %= NumKinds
			}
		}
		tr := Pack(accs)
		if !holds(tr, accs) {
			return false
		}
		before := tr.Bytes()
		tr.Reset()
		tr.Grow(len(refill))
		grown := tr.Bytes()
		for _, a := range refill {
			tr.Append(a)
		}
		kept := grown == before || len(refill) > len(accs)
		return holds(tr, refill) && kept && tr.Bytes() == grown
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
