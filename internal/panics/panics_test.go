package panics

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (val any) {
	defer func() { val = recover() }()
	f()
	return nil
}

//go:noinline
func divide(a, b int) int { return a / b }

// TestCarryKeepsRuntimeErrorStack: a runtime error carried to another
// goroutine reads the same and names the function that raised it; a
// carried value passes through a second Carry unchanged, and so does a
// value that is not a runtime error.
func TestCarryKeepsRuntimeErrorStack(t *testing.T) {
	ch := make(chan any)
	go func() {
		defer func() { ch <- Carry(recover()) }()
		divide(1, 0)
	}()
	v := <-ch
	err, ok := v.(runtime.Error)
	if !ok || err.Error() != "runtime error: integer divide by zero" {
		t.Fatalf("carried %T %v, want the divide error", v, v)
	}
	stack := string(v.(interface{ PanicStack() []byte }).PanicStack())
	if !strings.Contains(stack, "panics.divide") {
		t.Errorf("carried stack does not name the faulting function:\n%s", stack)
	}
	if Carry(v) != v {
		t.Error("a carried value was wrapped again")
	}
	if Carry("sentinel") != "sentinel" {
		t.Error("a plain value was not passed through")
	}
}

// TestFirstRaisesFirstPanic: of a group's panics, Raise raises the
// first one kept, after stop ran once per panic; without a panic, Raise
// does nothing.
func TestFirstRaisesFirstPanic(t *testing.T) {
	var f First
	var wg sync.WaitGroup
	stops := 0
	stop := func() { stops++ }
	for _, v := range []string{"first", "second"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Recover(stop)
			panic(v)
		}()
		wg.Wait()
	}
	if stops != 2 {
		t.Errorf("stop ran %d times, want 2", stops)
	}
	if v := recovered(f.Raise); v != "first" {
		t.Errorf("Raise panicked with %v, want the first value", v)
	}
	var none First
	if v := recovered(none.Raise); v != nil {
		t.Errorf("Raise with no panic panicked with %v", v)
	}
}
