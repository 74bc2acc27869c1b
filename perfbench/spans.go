package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one host-time interval around a call into a layer: name,
// start and end in nanoseconds since the tracer started, and the index
// of the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// callLayer aggregates the spans of one hot per-call boundary (a
// backend method called hundreds of thousands of times per run): their
// count, total and every duration, under one parent span. Keeping
// durations instead of full spans bounds the traced run's memory.
type callLayer struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Calls  int64   `json:"calls"`
	Total  int64   `json:"total_ns"`
	durs   []int32 // nanoseconds per call
}

func (c *callLayer) add(d time.Duration) {
	c.Calls++
	c.Total += int64(d)
	c.durs = append(c.durs, int32(min(d, time.Duration(1<<31-1))))
}

// seconds is the layer's total host time.
func (c *callLayer) seconds() float64 { return float64(c.Total) / 1e9 }

// quantileNs is the q-quantile of the per-call durations, by nearest
// rank, in nanoseconds (0 without calls).
func (c *callLayer) quantileNs(q float64) float64 {
	xs := make([]float64, len(c.durs))
	for i, d := range c.durs {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

// tracer keeps the traced run's spans in memory; write dumps them when
// the run ends. It is used by one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	calls []*callLayer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. On a nil tracer (an
// untraced run) begin and end do nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func(id int) error) error {
	id := t.begin(name, parent)
	err := f(id)
	t.end(id)
	return err
}

// layer returns a new per-call aggregate under parent.
func (t *tracer) layer(name string, parent int) *callLayer {
	c := &callLayer{Name: name, Parent: parent}
	t.calls = append(t.calls, c)
	return c
}

// total is the summed duration of every span named name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// self is span i's duration minus the time its child spans and child
// call layers cover, in seconds. Children of one parent never overlap:
// the benchmark is single-goroutine.
func (t *tracer) self(i int) float64 {
	ns := t.spans[i].End - t.spans[i].Start
	for _, s := range t.spans {
		if s.Parent == i {
			ns -= s.End - s.Start
		}
	}
	for _, c := range t.calls {
		if c.Parent == i {
			ns -= c.Total
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans and call aggregates as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []span       `json:"spans"`
		Calls []*callLayer `json:"calls"`
	}{t.spans, t.calls}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
