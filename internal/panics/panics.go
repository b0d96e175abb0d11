// Package panics carries a panic from the goroutine that raised it to
// the goroutine that waits for that goroutine's work. A fault on a
// worker then fails the caller's run, where a recover can turn it into
// an error, instead of ending the process; and a runtime error raised
// again on the caller still names the code that raised it.
package panics

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Carry prepares v, just recovered, to be raised again on another
// goroutine. Called from the deferred function that recovered it, it
// wraps a runtime.Error with the calling goroutine's stack, which still
// holds the frames that raised the error; raised again elsewhere, the
// error alone would lose them. The wrapper is still a runtime.Error with
// the same message, and its PanicStack method returns that stack. A
// value that already carries a stack, and every other value (a
// deliberate sentinel, say), is returned unchanged.
func Carry(v any) any {
	if _, ok := v.(interface{ PanicStack() []byte }); ok {
		return v
	}
	if err, ok := v.(runtime.Error); ok {
		return &fault{err, debug.Stack()}
	}
	return v
}

type fault struct {
	err   runtime.Error
	stack []byte
}

func (f *fault) Error() string { return f.err.Error() }
func (f *fault) RuntimeError() {}

// PanicStack returns the stack of the goroutine the error was raised on.
func (f *fault) PanicStack() []byte { return f.stack }

// First keeps the first panic among a group of goroutines for the
// goroutine that joins them to raise again. The zero value is ready.
type First struct {
	mu  sync.Mutex
	val any
	set bool
}

// Recover must be deferred directly by a goroutine of the group. If the
// goroutine is panicking, Recover stops the panic, keeps its value (see
// Carry) unless an earlier one is kept, and calls stop, which should
// stop the group's other work.
func (f *First) Recover(stop func()) {
	v := recover()
	if v == nil {
		return
	}
	f.mu.Lock()
	if !f.set {
		f.val, f.set = Carry(v), true
	}
	f.mu.Unlock()
	stop()
}

// Raise panics with the kept value, if any. Call it once every goroutine
// of the group has returned.
func (f *First) Raise() {
	if f.set {
		panic(f.val)
	}
}
