package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation share
// Op; Parent is the ID of the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory; dump writes them out when the run ends.
// Calls nest strictly (begin/end in stack order) on one goroutine.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	stack  []int
	ms     runtime.MemStats
}

func newTracer() *tracer {
	// Preallocated so growing the span list rarely allocates inside a span.
	return &tracer{origin: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// mallocs reads the process-wide allocation count. It stops the world, so
// only spans whose allocation count is a reported metric pay for it.
func (t *tracer) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// beginCounted is begin preceded by an allocation count. The counts are
// read outside the span, so their stop-the-world cost is not in its time.
func (t *tracer) beginCounted(name string) (int, uint64) {
	before := t.mallocs()
	return t.begin(name), before
}

// endCounted closes a span opened by beginCounted and records its allocations.
func (t *tracer) endCounted(id int, before uint64) {
	t.end(id)
	t.spans[id].Allocs = t.mallocs() - before
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the part its direct children
// cover. Children of one span never overlap (the replay is sequential), so
// the covered part is the sum of their durations.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// quantile returns the nearest-rank q-quantile of xs (sorted in place), 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMS(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// ratio divides, reading 0/0 as 0 for layers a workload never runs.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
