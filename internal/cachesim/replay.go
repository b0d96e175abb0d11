package cachesim

import (
	"context"

	"gspc/internal/stream"
	"gspc/internal/telemetry"
)

// DefaultCheckStride is the access interval between context polls in
// ReplaySource. Simulated traces run tens of millions of accesses per
// frame; one atomic context check every 8K accesses bounds cancellation
// latency to microseconds while keeping the poll invisible in profiles.
const DefaultCheckStride = 8192

// ReplaySource plays the packed trace tr through c, polling ctx every
// stride accesses (stride <= 0 selects DefaultCheckStride) so a
// cancelled or expired context stops the simulation promptly instead of
// after the full trace. It returns ctx.Err() when the replay was cut
// short, nil when the whole trace was consumed. This is the replay loop
// and cancellation seam of every offline cache simulation in the
// repository.
func ReplaySource(ctx context.Context, c *Cache, tr *stream.Trace, stride int) error {
	return ReplaySourceRange(ctx, c, tr, 0, tr.Len(), stride)
}

// ReplaySourceRange replays the half-open record range [lo, hi) of tr
// through c — the interval-sampling seam: a warmup window followed by a
// measured window replays the same trace twice with different bounds.
// Seq stays the global trace position, so Belady's OPT (which keys its
// next-use chain on Seq) sees the same lookahead it would in a full
// replay. On a set-sampled cache, accesses to unsampled sets are
// filtered here — one slice index and a compare per skipped record —
// before any policy or counter state is touched. The context is polled
// before records lo, lo+stride, lo+2·stride, ….
func ReplaySourceRange(ctx context.Context, c *Cache, tr *stream.Trace, lo, hi, stride int) error {
	if stride <= 0 {
		stride = DefaultCheckStride
	}
	if lo < 0 {
		lo = 0
	}
	if n := tr.Len(); hi > n {
		hi = n
	}
	if hi <= lo {
		return nil
	}
	// One span per replay (never per access): on traced runs this splits
	// the raw access-loop time out of the enclosing policy span — e.g.
	// Belady's next-use precomputation vs its replay.
	defer telemetry.StartFrom(ctx, "replay", "cachesim", telemetry.Int("accesses", int64(hi-lo))).End()
	addrs, meta := tr.Records()
	sm := c.sampleMap
	shift, idx := c.blockShift, c.index
	var skipped int64
	for start, end := lo, lo; start < hi; start = end {
		if err := ctx.Err(); err != nil {
			c.Stats.SampledSkips += skipped
			return err
		}
		end = hi
		if stride < hi-start {
			end = start + stride
		}
		for i := start; i < end; i++ {
			if sm != nil && sm[idx.mod(addrs[i]>>shift)] < 0 {
				skipped++
				continue
			}
			k, w := stream.UnpackMeta(meta[i])
			c.Access(stream.Access{Addr: addrs[i], Seq: int64(i), Kind: k, Write: w})
		}
	}
	c.Stats.SampledSkips += skipped
	return nil
}
