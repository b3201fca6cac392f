package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span that
// was open when this one began (-1 at the root); times are nanoseconds since
// the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes a span; spans close in the reverse order they opened.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// record adds an already-timed span (start and end measured by the caller)
// under the innermost open span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration less the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// count returns how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write stores the run's spans and per-name self times as JSON under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string  `json:"name"`
		Spans  int     `json:"spans"`
		SelfMs float64 `json:"self_ms"`
	}
	rows := make([]selfRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, selfRow{Name: n, Spans: t.count(n), SelfMs: self[n]})
	}
	doc := struct {
		RunID string    `json:"run_id"`
		Self  []selfRow `json:"self"`
		Spans []span    `json:"spans"`
	}{t.runID, rows, t.spans}
	path := filepath.Join(dir, t.runID+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("trace encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
