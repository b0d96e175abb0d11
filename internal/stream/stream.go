// Package stream defines the graphics data streams that flow between the
// rendering pipeline, the render caches, and the GPU last-level cache, as
// described in Section 2 of the paper. Every memory reference carries the
// identity of the source render cache (or fixed-function unit) that issued
// it; the LLC policies in internal/core key their decisions on this
// identity but never need to store it per block (except for render
// targets, which are tracked with the block state bits).
package stream

import "fmt"

// Kind identifies the graphics stream an access belongs to.
type Kind uint8

// The stream kinds, mirroring Figure 3 of the paper. Vertex covers both
// the vertex and vertex-index caches' misses; Display is the final
// displayable color written to the back buffer (consumed only by the
// display engine, never reused); Other covers shader code, constants and
// miscellaneous state.
const (
	Vertex Kind = iota
	HiZ
	Z
	Stencil
	RT
	Texture
	Display
	Other

	// NumKinds is the number of distinct stream kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	Vertex:  "vertex",
	HiZ:     "hiz",
	Z:       "z",
	Stencil: "stencil",
	RT:      "rt",
	Texture: "texture",
	Display: "display",
	Other:   "other",
}

// String returns the lower-case name of the stream kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined stream kinds.
func (k Kind) Valid() bool { return k < NumKinds }

// Kinds lists every stream kind in declaration order. Useful for ranging
// over per-stream statistics.
func Kinds() []Kind {
	ks := make([]Kind, NumKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Access is a single memory reference presented to a cache. Addr is a
// byte address (the cache masks it to its block size). Seq is the global
// position of the access in its trace; it is only required by policies
// that need future knowledge (Belady's OPT) and may be left zero
// otherwise.
type Access struct {
	Addr  uint64
	Seq   int64
	Kind  Kind
	Write bool
}

// String renders the access for debugging.
func (a Access) String() string {
	rw := "R"
	if a.Write {
		rw = "W"
	}
	return fmt.Sprintf("%s %s 0x%x", a.Kind, rw, a.Addr)
}

// Sink consumes a stream of accesses. The rendering pipeline emits raw
// accesses into a render-cache complex, whose miss stream feeds an LLC
// model or a packed Trace; all of those are Sinks.
type Sink interface {
	Emit(a Access)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(a Access)

// Emit calls f(a).
func (f SinkFunc) Emit(a Access) { f(a) }

// Counter is a Sink that counts accesses per stream kind.
type Counter struct {
	Total  int64
	ByKind [NumKinds]int64
}

// Emit records the access.
func (c *Counter) Emit(a Access) {
	c.Total++
	if a.Kind < NumKinds {
		c.ByKind[a.Kind]++
	}
}
