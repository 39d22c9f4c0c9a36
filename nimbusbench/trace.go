package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them out when the run ends.
// Spans are recorded by the benchmark around its calls into the program's
// packages; nothing inside the program is instrumented.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's start
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string, parent int) func() {
	id := t.begin(name, parent)
	return func() { t.finish(id) }
}

// timed runs fn n times, each call its own span, and returns the call
// durations in seconds.
func (t *tracer) timed(name string, parent, n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		id := t.begin(name, parent)
		fn(i)
		out[i] = t.finish(id).Seconds()
	}
	return out
}

// batched runs fn per·batches times with one span per batch of per calls,
// for calls too short to time one by one, and returns per-call seconds.
func (t *tracer) batched(name string, parent, batches, per int, fn func(i int)) []float64 {
	out := make([]float64, batches)
	for b := 0; b < batches; b++ {
		id := t.begin(name, parent)
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		out[b] = t.finish(id).Seconds() / float64(per)
	}
	return out
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the time covered by child spans
	P50   time.Duration
}

// layers aggregates spans by name; self time is a span's duration minus
// its children's.
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := time.Duration(s.End - s.Start)
		r.Count++
		r.Total += d
		self := d - child[s.ID]
		if self < 0 {
			self = 0 // concurrent children overlap their parent
		}
		r.Self += self
		durs[s.Name] = append(durs[s.Name], d.Seconds())
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.P50 = time.Duration(median(durs[name]) * float64(time.Second))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write saves the spans as JSON lines and the per-layer table.
func (t *tracer) write(spansPath string, table io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := os.WriteFile(spansPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(table, "%-28s %8s %14s %14s %12s\n", "span", "count", "total", "self", "p50")
	for _, r := range t.layers() {
		fmt.Fprintf(table, "%-28s %8d %14v %14v %12v\n", r.Name, r.Count, r.Total.Round(time.Microsecond), r.Self.Round(time.Microsecond), r.P50)
	}
	return nil
}
