// Package metrics is the observatory's observability core: typed
// instruments (Counter, Gauge, a log₂-bucketed latency Histogram),
// namespaced registration in a Registry, and a consistent point-in-time
// Snapshot that /metrics serves as JSON and renders as the Prometheus
// text exposition.
//
// The paper's Infrastructure Manager decides cloudbursting, replacement
// and migration from instance telemetry; before this package that
// telemetry had grown as eight disconnected ad-hoc counter sets
// hand-stitched together. Every layer now records through the same
// three instrument types:
//
//   - Counter: a monotonically increasing uint64 (events, errors).
//   - Gauge: an instantaneous int64 (in-flight requests, queue depth).
//   - Histogram: a log₂-bucketed distribution with lock-free atomic
//     buckets and 0 allocs/op on the record path, exposing count, sum,
//     max and derived quantiles (p50/p95/p99).
//
// Instruments are safe for concurrent use. The record path never
// allocates and never takes a lock, so hot paths (hub publish, HTTP
// middleware, series reads) can record unconditionally.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; counters handed out by a Registry are registered for
// exposition.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogramBuckets is the bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. bucket 0 holds exactly 0 and bucket i ≥ 1
// holds [2^(i-1), 2^i). bits.Len64 ranges over [0, 64].
const histogramBuckets = 65

// DurationScale is the Histogram scale for instruments that record
// time.Duration nanoseconds but expose seconds (the Prometheus base
// unit for time).
const DurationScale = 1e9

// Histogram is a log₂-bucketed distribution. Record is lock-free and
// allocation-free: one atomic bucket increment, one atomic sum add and
// a CAS loop for the max. Count is derived from the buckets, so any
// snapshot satisfies sum(buckets) == count by construction.
//
// The zero value is usable and exposes raw recorded units (scale 1).
// Use NewHistogram to attach a scale dividing raw units on exposition —
// duration histograms record nanoseconds with scale DurationScale and
// expose seconds.
type Histogram struct {
	scale   float64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histogramBuckets]atomic.Uint64
}

// NewHistogram returns a histogram whose exposed values are raw
// recorded units divided by scale (non-positive selects 1).
func NewHistogram(scale float64) *Histogram {
	return &Histogram{scale: scale}
}

// Record adds one observation of v raw units.
func (h *Histogram) Record(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records d as nanoseconds (negative records as zero).
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// RecordSince records the time elapsed since start.
func (h *Histogram) RecordSince(start time.Time) {
	h.RecordDuration(time.Since(start))
}

// Count returns the number of observations (the sum of all buckets).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Scale returns the divisor applied to raw units on exposition.
func (h *Histogram) Scale() float64 {
	if h.scale <= 0 {
		return 1
	}
	return h.scale
}

// HistogramSnapshot is a point-in-time view of a histogram. Count is
// always exactly the sum of Buckets: it is computed from them, not
// tracked separately, so the invariant holds in any snapshot taken
// while writers are recording.
type HistogramSnapshot struct {
	// Count is the observation count (== sum of Buckets).
	Count uint64
	// Sum and Max are in raw recorded units.
	Sum uint64
	Max uint64
	// Buckets[i] counts observations v with bits.Len64(v) == i.
	Buckets [histogramBuckets]uint64

	scale float64
}

// Snapshot captures the histogram's current state. Buckets are read in
// index order; because each bucket is monotonic, successive snapshots
// taken by one goroutine have monotonically non-decreasing counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{scale: h.Scale()}
	for i := range h.buckets {
		b := h.buckets[i].Load()
		s.Buckets[i] = b
		s.Count += b
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Since returns the interval view of the histogram between prev and s:
// bucket counts, Count and Sum are the deltas of the two cumulative
// snapshots. Max cannot be decomposed, so the interval inherits s's
// cumulative Max — Quantile on the delta therefore clamps against an
// upper bound, never an underestimate. A prev bucket larger than s's
// (snapshots from different histograms) clamps to zero rather than
// wrapping.
func (s HistogramSnapshot) Since(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Max: s.Max, scale: s.scale}
	for i := range s.Buckets {
		if s.Buckets[i] > prev.Buckets[i] {
			d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
			d.Count += d.Buckets[i]
		}
	}
	if s.Sum > prev.Sum {
		d.Sum = s.Sum - prev.Sum
	}
	return d
}

// Scale returns the divisor applied to raw units on exposition.
func (s HistogramSnapshot) Scale() float64 {
	if s.scale <= 0 {
		return 1
	}
	return s.scale
}

// bucketBounds returns bucket i's value range [lo, hi) in raw units as
// floats (bucket 0 is the single value 0).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// UpperBound returns bucket i's exclusive upper bound in scaled units.
func (s HistogramSnapshot) UpperBound(i int) float64 {
	_, hi := bucketBounds(i)
	return hi / s.Scale()
}

// Quantile estimates the q-quantile (0 < q < 1) in scaled units by
// linear interpolation inside the covering bucket, clamped to the
// observed maximum. An empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	maxScaled := float64(s.Max) / s.Scale()
	if q >= 1 {
		return maxScaled
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := bucketBounds(i)
			est := (lo + (hi-lo)*(target-cum)/float64(c)) / s.Scale()
			if est > maxScaled {
				est = maxScaled
			}
			return est
		}
		cum = next
	}
	return maxScaled
}

// SumScaled returns the sum of observations in scaled units.
func (s HistogramSnapshot) SumScaled() float64 { return float64(s.Sum) / s.Scale() }

// MaxScaled returns the largest observation in scaled units.
func (s HistogramSnapshot) MaxScaled() float64 { return float64(s.Max) / s.Scale() }

// Mean returns the average observation in scaled units (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count) / s.Scale()
}
