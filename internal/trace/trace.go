// Package trace provides LLC access trace capture, a binary container
// format for storing traces on disk, and the glue that renders a workload
// frame through the render cache complex to produce its LLC trace — the
// equivalent of the paper's "LLC load/store access trace collected from
// the detailed simulator for each frame" (Section 2).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"gspc/internal/pipeline"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

// sizeHints remembers the most recent trace length per (frame, scale),
// so repeat synthesis of a frame — benchmarks, sweeps with the trace
// cache disabled or evicting — pre-sizes its trace instead of paying
// a dozen append regrowths of a multi-megabyte buffer. The hint only
// shapes allocation, never content. A long-lived server synthesizes at
// any scale a request names, so the map holds at most maxSizeHints
// entries: recording a new key into a full map first drops an
// arbitrary one.
var sizeHints = struct {
	sync.Mutex
	m map[hintKey]int
}{m: map[hintKey]int{}}

// maxSizeHints bounds sizeHints. The suite's 52 frames at a few dozen
// distinct scales fit.
const maxSizeHints = 2048

// hintKey identifies a synthesized frame without formatting its job ID.
type hintKey struct {
	app   string
	frame int
	scale float64
}

func hintKeyOf(job workload.FrameJob, scale float64) hintKey {
	return hintKey{app: job.App.Abbrev, frame: job.Index, scale: scale}
}

// EstimateAccesses returns the expected LLC trace length for a frame at
// the given scale: the remembered length of the last synthesis of this
// exact (job, scale), otherwise an area-proportional estimate, floored.
func EstimateAccesses(job workload.FrameJob, scale float64) int {
	sizeHints.Lock()
	n, ok := sizeHints.m[hintKeyOf(job, scale)]
	sizeHints.Unlock()
	if ok {
		return n
	}
	// Trace length grows roughly with frame area. A small floor avoids
	// silly tiny allocations without risking a large over-commit.
	est := int(float64(job.App.Width) * float64(job.App.Height) * scale * scale / 4)
	if est < 4096 {
		est = 4096
	}
	return est
}

func recordSize(job workload.FrameJob, scale float64, n int) {
	k := hintKeyOf(job, scale)
	sizeHints.Lock()
	defer sizeHints.Unlock()
	if _, ok := sizeHints.m[k]; !ok && len(sizeHints.m) >= maxSizeHints {
		for old := range sizeHints.m {
			delete(sizeHints.m, old)
			break
		}
	}
	sizeHints.m[k] = n
}

// GeneratePacked renders one suite frame at the given linear scale
// through a render cache complex (scaled to match) and returns the
// resulting LLC access trace, packed at 9 bytes per record with Seq
// implicit in position. This is the synthesis path behind the shared
// frame-trace cache.
//
// The render caches are scaled by the linear factor, not by area: their
// working sets are dominated by rows of surface tiles (line buffers),
// whose footprint grows with resolution, not with pixel count. Scaling
// them linearly keeps the filtered LLC stream mix representative of the
// full-resolution configuration.
func GeneratePacked(job workload.FrameJob, scale float64) *stream.Trace {
	t := stream.NewTrace(EstimateAccesses(job, scale))
	GeneratePackedInto(t, job, scale, rendercache.DefaultConfig().Scaled(scale))
	return t
}

// GeneratePackedInto renders a frame into an existing packed trace
// buffer, appending after whatever capacity Reset left behind — the
// buffer-reuse hook for sweeps that synthesize many frames serially.
// The buffer is reset first; on return it holds exactly the new frame.
func GeneratePackedInto(t *stream.Trace, job workload.FrameJob, scale float64, cfg rendercache.Config) {
	t.Reset()
	t.Grow(EstimateAccesses(job, scale))
	rc := rendercache.New(cfg, t)
	frame := job.Build(scale)
	if err := frame.Validate(); err != nil {
		panic(fmt.Sprintf("trace: invalid frame %s: %v", job.ID(), err))
	}
	pipeline.NewRenderer(rc).RenderFrame(frame)
	recordSize(job, scale, t.Len())
}

// prefixDone is the sentinel a limitSink panics with to abort rendering
// once the prefix budget is reached; GeneratePackedPrefix recovers it.
type prefixDone struct{}

// limitSink forwards LLC accesses into the packed trace until limit
// records have been collected, then aborts the render by panicking with
// the prefixDone sentinel. Rendering emission is deterministic, so the
// collected records are exactly the first limit records of the full
// frame trace.
type limitSink struct {
	t     *stream.Trace
	limit int
}

func (s *limitSink) Emit(a stream.Access) {
	s.t.Append(a)
	if s.t.Len() >= s.limit {
		panic(prefixDone{})
	}
}

// GeneratePackedPrefix renders a frame into t but stops as soon as limit
// LLC records have been emitted, aborting the rest of the render. The
// result is bit-identical to the first min(limit, full) records of
// GeneratePackedInto with the same arguments: emission order is
// deterministic and the renderer holds no state outside the per-call
// render-cache complex, so cutting the render short cannot perturb the
// prefix. Unlike GeneratePackedInto it never updates the size hints —
// a truncated length must not shape later full syntheses (content is
// never affected by hints, but sampled runs must also stay independent
// of process history for bit-determinism of their own bookkeeping).
func GeneratePackedPrefix(t *stream.Trace, job workload.FrameJob, scale float64, cfg rendercache.Config, limit int) {
	t.Reset()
	if limit <= 0 {
		return
	}
	t.Grow(limit)
	rc := rendercache.New(cfg, &limitSink{t: t, limit: limit})
	frame := job.Build(scale)
	if err := frame.Validate(); err != nil {
		panic(fmt.Sprintf("trace: invalid frame %s: %v", job.ID(), err))
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(prefixDone); !ok {
				panic(r)
			}
		}
	}()
	pipeline.NewRenderer(rc).RenderFrame(frame)
}

// Binary container format:
//
//	magic   [8]byte  "GSPCTRC1"
//	count   uint64
//	records count * { addr uint64, meta uint8 }   (little endian)
//
// where meta packs the stream kind in bits 0..6 and the write flag in
// bit 7.

var magic = [8]byte{'G', 'S', 'P', 'C', 'T', 'R', 'C', '1'}

// ErrBadMagic reports a container that is not a GSPC trace.
var ErrBadMagic = errors.New("trace: bad magic")

// WriteTrace stores a packed trace in the binary container format. The
// on-disk record (addr uint64 + meta uint8) is exactly the packed
// in-memory record, so no intermediate slice is built.
func WriteTrace(w io.Writer, t *stream.Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(t.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [9]byte
	for i, n := 0, t.Len(); i < n; i++ {
		binary.LittleEndian.PutUint64(rec[:8], t.Addr(i))
		rec[8] = stream.PackMeta(t.KindAt(i), t.WriteAt(i))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace loads a trace from the binary container format into the
// packed representation, at 9 bytes per record instead of 24.
func ReadTrace(r io.Reader) (*stream.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// Pre-size conservatively: the count comes from an untrusted header,
	// so cap the up-front allocation and let Append grow the rest as
	// records actually arrive (a truncated file then fails fast instead
	// of allocating gigabytes).
	capHint := int(count)
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	t := stream.NewTrace(capHint)
	var rec [9]byte
	for i := int64(0); i < int64(count); i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		k, wr := stream.UnpackMeta(rec[8])
		if !k.Valid() {
			return nil, fmt.Errorf("trace: record %d has invalid kind %d", i, rec[8]&0x7f)
		}
		t.Append(stream.Access{Addr: binary.LittleEndian.Uint64(rec[:8]), Kind: k, Write: wr})
	}
	return t, nil
}
