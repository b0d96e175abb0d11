package stream

// traceRecordBytes is the packed per-record footprint: an 8-byte address
// plus a 1-byte meta (kind + write flag), mirroring the on-disk
// container format of internal/trace. A stream.Access costs 24 bytes
// (address, explicit Seq, padded flags), so packing cuts trace memory
// about 2.7x.
const traceRecordBytes = 9

// RecordBytes is the packed per-record footprint, exported so admission
// control can estimate a request's in-flight trace memory as
// EstimateAccesses × RecordBytes before any trace is synthesized.
const RecordBytes = traceRecordBytes

// Trace is a packed access trace: structure-of-arrays with one uint64
// address and one meta byte per record, and Seq implicit in the record
// index. It is append-only while being built and safe for any number of
// concurrent readers once built — the shared frame-trace cache hands the
// same *Trace to every experiment replaying that frame.
type Trace struct {
	addrs []uint64
	meta  []uint8
}

// metaWrite is the write-flag bit of a packed meta byte; the low seven
// bits carry the stream kind, exactly as in the on-disk format.
const metaWrite = 0x80

// PackMeta packs a kind and write flag into a trace meta byte.
func PackMeta(k Kind, write bool) uint8 {
	m := uint8(k) & 0x7f
	if write {
		m |= metaWrite
	}
	return m
}

// UnpackMeta splits a trace meta byte into its kind and write flag.
func UnpackMeta(m uint8) (Kind, bool) {
	return Kind(m & 0x7f), m&metaWrite != 0
}

// NewTrace returns an empty packed trace with room for capacity records.
func NewTrace(capacity int) *Trace {
	if capacity < 0 {
		capacity = 0
	}
	return &Trace{
		addrs: make([]uint64, 0, capacity),
		meta:  make([]uint8, 0, capacity),
	}
}

// Pack converts a []Access to the packed representation. Seq fields are
// discarded: the packed trace's positions are its sequence numbers.
func Pack(accs []Access) *Trace {
	t := NewTrace(len(accs))
	for _, a := range accs {
		t.Append(a)
	}
	return t
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.addrs) }

// At returns the access at position i, with Seq = i.
func (t *Trace) At(i int) Access {
	k, w := UnpackMeta(t.meta[i])
	return Access{Addr: t.addrs[i], Seq: int64(i), Kind: k, Write: w}
}

// Addr returns the byte address of record i without materializing the
// full access.
func (t *Trace) Addr(i int) uint64 { return t.addrs[i] }

// KindAt returns the stream kind of record i.
func (t *Trace) KindAt(i int) Kind { return Kind(t.meta[i] & 0x7f) }

// WriteAt reports whether record i is a store.
func (t *Trace) WriteAt(i int) bool { return t.meta[i]&metaWrite != 0 }

// Append adds one record. The access's Seq is ignored; its position in
// the trace is its sequence number.
func (t *Trace) Append(a Access) {
	t.addrs = append(t.addrs, a.Addr)
	t.meta = append(t.meta, PackMeta(a.Kind, a.Write))
}

// Emit implements Sink, so a Trace can terminate a render-cache complex
// directly and collect the packed LLC trace with no intermediate
// []Access.
func (t *Trace) Emit(a Access) { t.Append(a) }

// Reset empties the trace, keeping the allocated capacity so the buffer
// can be reused across frames.
func (t *Trace) Reset() {
	t.addrs = t.addrs[:0]
	t.meta = t.meta[:0]
}

// Grow ensures capacity for at least n more records, mirroring
// slices.Grow semantics; it is the pre-sizing hook trace synthesis uses
// to kill repeated append growth.
func (t *Trace) Grow(n int) {
	if n <= 0 {
		return
	}
	if need := len(t.addrs) + n; need > cap(t.addrs) {
		addrs := make([]uint64, len(t.addrs), need)
		copy(addrs, t.addrs)
		t.addrs = addrs
	}
	if need := len(t.meta) + n; need > cap(t.meta) {
		meta := make([]uint8, len(t.meta), need)
		copy(meta, t.meta)
		t.meta = meta
	}
}

// Bytes returns the approximate heap footprint of the trace in bytes
// (capacity, not length — what the memory budget actually pays for).
func (t *Trace) Bytes() int64 {
	return int64(cap(t.addrs))*8 + int64(cap(t.meta))
}

// Records exposes the raw packed columns (addresses and meta bytes) as
// read-only views for hot replay loops that want plain slice indexing
// with no per-record method call. Callers must not mutate either slice.
func (t *Trace) Records() (addrs []uint64, meta []uint8) {
	return t.addrs, t.meta
}

// Materialize converts the packed trace back to a []Access with Seq
// assigned in order, for consumers that still need the slice form.
func (t *Trace) Materialize() []Access {
	out := make([]Access, t.Len())
	for i := range out {
		out[i] = t.At(i)
	}
	return out
}
