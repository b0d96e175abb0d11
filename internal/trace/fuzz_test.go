package trace

import (
	"bytes"
	"testing"

	"gspc/internal/stream"
)

// FuzzReadTrace exercises the trace decoder against arbitrary byte
// streams: it must never panic, and anything it accepts must re-encode
// to exactly the 16 + 9·n bytes it consumed (the meta byte of a valid
// record is canonical, so no accepted input has a second encoding).
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteTrace(&seed, stream.Pack([]stream.Access{
		{Addr: 0x1000, Kind: stream.Z, Write: true},
		{Addr: 0x2000, Kind: stream.Texture},
	}))
	f.Add(seed.Bytes())
	f.Add([]byte("GSPCTRC1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if n := 16 + 9*tr.Len(); !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("%d records re-encode to % x, decoded from % x", tr.Len(), buf.Bytes(), data[:n])
		}
	})
}
