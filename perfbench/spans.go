package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// benchmark operation share Op; Parent is the ID of the enclosing span (0
// for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the benchmark's span recorder. Spans stay in memory until the
// run ends. A nil *tracer records nothing, so the untraced run pays one nil
// check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation ID (0 when tracing is off).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID for end (0 when tracing is off).
func (t *tracer) begin(name string, op uint64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// within runs f inside a span.
func (t *tracer) within(name string, op uint64, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// selfTimes returns every closed span's self time in microseconds, grouped
// by span name: its duration minus the part its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End > 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// write stores the spans as JSON lines and returns the span count per name.
func (t *tracer) write(path string) (map[string]int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	counts := map[string]int{}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
		counts[s.Name]++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return counts, f.Close()
}

func formatSpanCounts(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  %-28s %d\n", n, counts[n])
	}
	return s
}
