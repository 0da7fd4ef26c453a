package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"momosyn/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Trace is the synthesis or job the span
// belongs to; Parent is the ID of the enclosing span (0 at the root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// retrace moves the spans ids to trace, for spans opened before the ID
// they belong to was known.
func (t *tracer) retrace(trace string, ids ...int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.spans[id-1].Trace = trace
	}
}

// durations returns the duration of every closed span with the name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// write stores the spans, then any job-lifecycle events, as JSON lines.
func (t *tracer) write(path string, lifecycle []*obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	for _, ev := range lifecycle {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
