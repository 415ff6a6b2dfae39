package main

import (
	"sort"
	"time"
)

// Span is one timed call of the traced run: Start and End are
// nanoseconds since the tracer's origin, Parent indexes the enclosing
// span (-1 for a root) and Op the stream position of the request the
// call served (-1 for clock and hub actions between requests).
type Span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Note and Size carry a call's outcome where one matters: the
	// run cache's hit/miss, an encoded payload's bytes.
	Note string `json:"note,omitempty"`
	Size int64  `json:"size,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer records spans in memory; nothing is written until the run
// ends. It is used from one goroutine.
type Tracer struct {
	origin time.Time
	spans  []Span
	stack  []int32
	op     int32
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now(), op: -1} }

// Now is the tracer's clock reading.
func (t *Tracer) Now() int64 { return int64(time.Since(t.origin)) }

// SetOp tags the spans that follow with a stream position.
func (t *Tracer) SetOp(op int) { t.op = int32(op) }

// Begin opens a span under the innermost open one.
func (t *Tracer) Begin(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Op: t.op, Parent: parent, Start: t.Now()})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, and any span still open inside it.
func (t *Tracer) End(id int32) {
	now := t.Now()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// Add records an already-finished child of parent.
func (t *Tracer) Add(name string, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, Span{Name: name, Op: t.op, Parent: parent, Start: start, End: end})
	return int32(len(t.spans) - 1)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes gives each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// emptySpanCost calibrates what one Begin/End pair costs on this host,
// in nanoseconds: the floor under every span the traced run records.
func emptySpanCost() float64 {
	const n = 200000
	t := NewTracer()
	t.spans = make([]Span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.End(t.Begin("empty"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
