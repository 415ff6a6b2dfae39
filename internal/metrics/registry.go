package metrics

import (
	"sort"
	"strings"
	"sync"
	"time"

	"evop/internal/clock"
)

// Label is one name=value dimension on a metric series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind is the instrument type of a registered metric.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// registered is one (name, labels) series and its instrument.
type registered struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds the process's metric series under namespaced,
// label-qualified names. Registration is get-or-create: asking for an
// already-registered (name, labels) pair of the same kind returns the
// existing instrument, so components that are rebuilt across restarts
// (e.g. the sensor network's push hub) keep cumulative counters.
// Re-registering a name under a different kind panics — that is a
// wiring bug, not a runtime condition.
//
// All methods are safe for concurrent use, and every factory method is
// nil-receiver safe: on a nil *Registry it returns a working,
// unregistered instrument. Packages can therefore instrument
// unconditionally and let the assembly layer decide what is exposed.
type Registry struct {
	clk   clock.Clock
	start time.Time

	mu    sync.Mutex
	byKey map[string]*registered
}

// NewRegistry returns an empty registry. The clock anchors uptime; nil
// falls back to the wall clock.
func NewRegistry(clk clock.Clock) *Registry {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Registry{
		clk:   clk,
		start: clk.Now(),
		byKey: make(map[string]*registered),
	}
}

// Uptime is the time elapsed on the registry's clock since NewRegistry.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return r.clk.Now().Sub(r.start)
}

// seriesKey builds the registration key: name plus labels sorted by
// label name, so label order at the call site does not split series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the existing series of the given kind, creating it via
// make when absent. A kind collision panics.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label, make func(*registered)) *registered {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic("metrics: " + key + " re-registered as " + kind.String() + ", was " + e.kind.String())
		}
		return e
	}
	e := &registered{name: name, help: help, labels: append([]Label(nil), labels...), kind: kind}
	make(e)
	r.byKey[key] = e
	return e
}

// Counter returns the registered counter for (name, labels), creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	e := r.lookup(name, help, KindCounter, labels, func(e *registered) { e.counter = &Counter{} })
	return e.counter
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	e := r.lookup(name, help, KindGauge, labels, func(e *registered) { e.gauge = &Gauge{} })
	return e.gauge
}

// GaugeFunc registers a callback gauge evaluated at snapshot time —
// the shape used for live views over existing state (instance counts,
// session states, heap bytes). Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	e := r.lookup(name, help, KindGauge, labels, func(e *registered) {})
	r.mu.Lock()
	e.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the registered histogram for (name, labels),
// creating it on first use with the given exposition scale (duration
// histograms pass DurationScale; see NewHistogram).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram(scale)
	}
	e := r.lookup(name, help, KindHistogram, labels, func(e *registered) { e.hist = NewHistogram(scale) })
	return e.hist
}

// Metric is one series in a Snapshot.
type Metric struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   Kind    `json:"-"`
	Labels []Label `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram is set for histogram series.
	Histogram *HistogramStats `json:"histogram,omitempty"`
}

// SeriesID renders the metric's identity as name{label="value",...} —
// stable, deterministic (labels sorted by name) and matching the
// Prometheus series notation.
func (m Metric) SeriesID() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	sorted := append([]Label(nil), m.Labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// HistogramStats is the snapshot form of a histogram: totals plus the
// derived quantiles, all in the histogram's scaled units.
type HistogramStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`

	// raw is the full bucket view, for the Prometheus exposition.
	raw HistogramSnapshot
}

// Raw returns the underlying bucket snapshot.
func (h HistogramStats) Raw() HistogramSnapshot { return h.raw }

// Snapshot is a consistent point-in-time view of every registered
// series, sorted by name then label signature — the stable order both
// the /metrics JSON document and the Prometheus exposition present.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered series. Nil-receiver safe.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	type capture struct {
		e  *registered
		fn func() float64
	}
	r.mu.Lock()
	entries := make([]capture, 0, len(r.byKey))
	for _, e := range r.byKey {
		entries = append(entries, capture{e: e, fn: e.gaugeFn})
	}
	r.mu.Unlock()

	s := Snapshot{Metrics: make([]Metric, 0, len(entries))}
	for _, c := range entries {
		e := c.e
		m := Metric{Name: e.name, Help: e.help, Kind: e.kind, Labels: e.labels}
		switch {
		case e.counter != nil:
			m.Value = float64(e.counter.Value())
		case c.fn != nil:
			// Callback gauges are evaluated outside the registry lock so a
			// callback may itself consult the registry.
			m.Value = c.fn()
		case e.gauge != nil:
			m.Value = float64(e.gauge.Value())
		case e.hist != nil:
			raw := e.hist.Snapshot()
			m.Histogram = &HistogramStats{
				Count: raw.Count,
				Sum:   raw.SumScaled(),
				Max:   raw.MaxScaled(),
				P50:   raw.Quantile(0.50),
				P95:   raw.Quantile(0.95),
				P99:   raw.Quantile(0.99),
				raw:   raw,
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool {
		if s.Metrics[i].Name != s.Metrics[j].Name {
			return s.Metrics[i].Name < s.Metrics[j].Name
		}
		return s.Metrics[i].SeriesID() < s.Metrics[j].SeriesID()
	})
	return s
}
