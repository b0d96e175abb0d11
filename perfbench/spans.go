package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// request share a trace id; the parent is resolved from the layer
// hierarchy when the spans are analysed or written out.
type span struct {
	Trace string `json:"trace"`
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
	// Parent is the index of the enclosing span in the dump, -1 for a
	// root.
	Parent int `json:"parent"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// parentLayer is the layer hierarchy of one request: a client request
// encloses the coordinator's handler, which encloses the member's
// handler, which encloses the engine's run. A replica install is caused
// by the coordinator's handler (and usually outlives it).
var parentLayer = map[string]string{
	"coordinator":    "client",
	"member.run":     "coordinator",
	"member.replica": "coordinator",
	"engine.run":     "member.run",
}

// recorder keeps spans in memory; all methods are safe for concurrent use
// and a nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) record(trace, name string, start, end time.Time, label string) {
	if r == nil {
		return
	}
	s := span{Trace: trace, Name: name, Label: label,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// resolve links every span to its parent and returns a snapshot of the
// spans with their indices grouped by trace id.
func (r *recorder) resolve() ([]span, map[string][]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byTrace := map[string][]int{}
	for i, s := range r.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for _, idx := range byTrace {
		first := map[string]int{}
		for _, i := range idx {
			if _, ok := first[r.spans[i].Name]; !ok {
				first[r.spans[i].Name] = i
			}
		}
		for _, i := range idx {
			if p, ok := first[parentLayer[r.spans[i].Name]]; ok {
				r.spans[i].Parent = p
			}
		}
	}
	return append([]span(nil), r.spans...), byTrace
}

// selfMs is span i's duration minus the part of its interval that its
// children cover.
func selfMs(spans []span, i int, children []int) float64 {
	s := spans[i]
	var iv [][2]int64
	for _, c := range children {
		lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, end int64
	end = s.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			covered += v[1] - lo
			end = v[1]
		}
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// dump writes every span as JSON to dir/name.
func (r *recorder) dump(dir, name string) error {
	spans, _ := r.resolve()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
