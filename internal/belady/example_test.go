package belady_test

import (
	"context"
	"fmt"

	"gspc/internal/belady"
	"gspc/internal/cachesim"
	"gspc/internal/stream"
)

// Example replays a short trace under Belady's optimal policy. The trace
// must be known in full up front: NextUseTrace builds the forward reuse
// chain, and cachesim.ReplaySource hands OPT each access with its trace
// position in Seq.
func Example() {
	tr := stream.NewTrace(8)
	for _, b := range []uint64{1, 2, 3, 1, 2, 4, 1, 2} {
		tr.Append(stream.Access{Addr: b * 64})
	}

	next := belady.NextUseTrace(tr, 6)
	c := cachesim.New(cachesim.Geometry{SizeBytes: 128, Ways: 2, BlockSize: 64}, belady.NewOPT(next))
	if err := cachesim.ReplaySource(context.Background(), c, tr, 0); err != nil {
		panic(err)
	}

	// OPT keeps blocks 1 and 2 resident and bypasses the never-reused
	// blocks 3 and 4 entirely.
	fmt.Printf("misses: %d (of %d accesses)\n", c.Stats.Misses, c.Stats.Accesses)
	fmt.Printf("bypasses: %d\n", c.Stats.Bypasses)
	// Output:
	// misses: 4 (of 8 accesses)
	// bypasses: 2
}
