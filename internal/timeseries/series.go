// Package timeseries is EVOp's time-series engine. Every dataset the
// portal exposes — observed rainfall, river levels, model hydrographs,
// sensor feeds — is carried as either a regular Series (fixed step, the
// shape hydrological models consume) or an Irregular sequence of
// timestamped observations (the shape in-situ sensors produce).
//
// The package provides the pre-processing the paper identifies as a major
// barrier for non-experts: resampling, alignment across sources, gap
// filling, aggregation, and the Flot-compatible JSON encoding the portal's
// visualisation widgets consume.
package timeseries

import (
	"errors"
	"time"
)

// Common errors returned by series operations.
var (
	// ErrEmpty indicates an operation that needs at least one value was
	// applied to an empty series.
	ErrEmpty = errors.New("timeseries: empty series")
	// ErrStepMismatch indicates two series with different steps were
	// combined without resampling.
	ErrStepMismatch = errors.New("timeseries: step mismatch")
	// ErrBadStep indicates a non-positive step.
	ErrBadStep = errors.New("timeseries: step must be positive")
	// ErrBadRange indicates an inverted or empty time range.
	ErrBadRange = errors.New("timeseries: invalid time range")
)

// Series is a regularly sampled time series: value i is the sample at
// Start + i*Step. NaN marks a missing value (a gap).
type Series struct {
	start  time.Time
	step   time.Duration
	values []float64
}

// New returns a Series starting at start with the given step. The values
// slice is copied. It returns ErrBadStep if step <= 0.
func New(start time.Time, step time.Duration, values []float64) (*Series, error) {
	if step <= 0 {
		return nil, ErrBadStep
	}
	v := make([]float64, len(values))
	copy(v, values)
	return &Series{start: start.UTC(), step: step, values: v}, nil
}

// MustNew is New but panics on error; for tests and literals built from
// constants.
func MustNew(start time.Time, step time.Duration, values []float64) *Series {
	s, err := New(start, step, values)
	if err != nil {
		panic(err)
	}
	return s
}

// Zeros returns a Series of n zero samples.
func Zeros(start time.Time, step time.Duration, n int) (*Series, error) {
	return Wrap(start, step, make([]float64, n))
}

// Wrap returns a Series taking ownership of values without copying. The
// caller must not use the slice independently afterwards except through
// Raw. It is the allocation-free counterpart of New for model kernels.
func Wrap(start time.Time, step time.Duration, values []float64) (*Series, error) {
	if step <= 0 {
		return nil, ErrBadStep
	}
	return &Series{start: start.UTC(), step: step, values: values}, nil
}

// Renew returns a series with the given shape and every sample zero,
// reusing s's backing storage when it has enough capacity; s may be nil.
// It is the scratch-buffer primitive the model kernels use: in steady
// state (same length run to run) it allocates nothing.
func Renew(s *Series, start time.Time, step time.Duration, n int) (*Series, error) {
	if step <= 0 {
		return nil, ErrBadStep
	}
	if n < 0 {
		return nil, ErrBadRange
	}
	if s == nil || cap(s.values) < n {
		return &Series{start: start.UTC(), step: step, values: make([]float64, n)}, nil
	}
	s.start, s.step = start.UTC(), step
	s.values = s.values[:n]
	clear(s.values)
	return s, nil
}

// Start returns the timestamp of the first sample.
func (s *Series) Start() time.Time { return s.start }

// Step returns the sampling interval.
func (s *Series) Step() time.Duration { return s.step }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.values) }

// End returns the timestamp just after the last sample
// (Start + Len*Step); it equals Start for an empty series.
func (s *Series) End() time.Time {
	return s.start.Add(time.Duration(len(s.values)) * s.step)
}

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.step)
}

// At returns sample i.
func (s *Series) At(i int) float64 { return s.values[i] }

// SetAt overwrites sample i.
func (s *Series) SetAt(i int, v float64) { s.values[i] = v }

// Raw returns the series' backing slice without copying; writes through
// the slice are visible to the series. It is the kernels' escape hatch —
// the slice is invalidated by Renew on the same series.
func (s *Series) Raw() []float64 { return s.values }

// Values returns a copy of the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	return &Series{start: s.start, step: s.step, values: s.Values()}
}

// IndexOf returns the sample index containing time t, or -1 if t falls
// outside the series.
func (s *Series) IndexOf(t time.Time) int {
	if t.Before(s.start) || !t.Before(s.End()) {
		return -1
	}
	return int(t.Sub(s.start) / s.step)
}

// ValueAt returns the sample covering time t and whether t is in range.
func (s *Series) ValueAt(t time.Time) (float64, bool) {
	i := s.IndexOf(t)
	if i < 0 {
		return 0, false
	}
	return s.values[i], true
}

// Slice returns the sub-series covering [from, to). Both bounds are
// clamped to the series extent. It returns ErrBadRange if from is not
// before to.
func (s *Series) Slice(from, to time.Time) (*Series, error) {
	if !from.Before(to) {
		return nil, ErrBadRange
	}
	if from.Before(s.start) {
		from = s.start
	}
	if to.After(s.End()) {
		to = s.End()
	}
	if !from.Before(to) {
		return &Series{start: from.UTC(), step: s.step}, nil
	}
	lo := int(from.Sub(s.start) / s.step)
	hi := int((to.Sub(s.start) + s.step - 1) / s.step)
	out := make([]float64, hi-lo)
	copy(out, s.values[lo:hi])
	return &Series{start: s.TimeAt(lo), step: s.step, values: out}, nil
}

// Map returns a new series with f applied to every sample.
func (s *Series) Map(f func(float64) float64) *Series {
	out := s.Clone()
	for i, v := range out.values {
		out.values[i] = f(v)
	}
	return out
}

// Scale returns s multiplied by k.
func (s *Series) Scale(k float64) *Series {
	return s.Map(func(v float64) float64 { return v * k })
}
