package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// AggFunc selects how samples are combined when resampling to a coarser
// step.
type AggFunc int

// Aggregation functions. Sum is appropriate for depth-like quantities
// (rainfall in mm per step); Mean for rates and states (discharge, level).
const (
	AggMean AggFunc = iota + 1
	AggSum
	AggMax
	AggMin
)

// String returns the aggregation name.
func (a AggFunc) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

func (a AggFunc) apply(vals []float64) float64 {
	n := 0
	acc := 0.0
	maxV := math.Inf(-1)
	minV := math.Inf(1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		n++
		acc += v
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	if n == 0 {
		return math.NaN()
	}
	switch a {
	case AggSum:
		return acc
	case AggMax:
		return maxV
	case AggMin:
		return minV
	default:
		return acc / float64(n)
	}
}

// Resample converts s to a new step. Coarsening aggregates whole windows
// with agg; refining repeats each sample (for AggMean-like quantities) or
// splits it evenly (for AggSum quantities, preserving mass). The new step
// must be a multiple or divisor of the old one.
func (s *Series) Resample(step time.Duration, agg AggFunc) (*Series, error) {
	if step <= 0 {
		return nil, ErrBadStep
	}
	if step == s.step {
		return s.Clone(), nil
	}
	if step > s.step {
		if step%s.step != 0 {
			return nil, fmt.Errorf("coarsening %v to %v: %w", s.step, step, ErrStepMismatch)
		}
		k := int(step / s.step)
		n := len(s.values) / k
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = agg.apply(s.values[i*k : (i+1)*k])
		}
		return &Series{start: s.start, step: step, values: out}, nil
	}
	if s.step%step != 0 {
		return nil, fmt.Errorf("refining %v to %v: %w", s.step, step, ErrStepMismatch)
	}
	k := int(s.step / step)
	out := make([]float64, len(s.values)*k)
	for i, v := range s.values {
		split := v
		if agg == AggSum {
			split = v / float64(k)
		}
		for j := 0; j < k; j++ {
			out[i*k+j] = split
		}
	}
	return &Series{start: s.start, step: step, values: out}, nil
}

// Align resamples and slices the given series to a common step and time
// window (the intersection). All inputs must have steps that are multiples
// or divisors of step. Depth-like series should be passed with AggSum, so
// Align takes one agg per series.
func Align(step time.Duration, series []*Series, aggs []AggFunc) ([]*Series, error) {
	if len(series) == 0 {
		return nil, ErrEmpty
	}
	if len(aggs) != len(series) {
		return nil, fmt.Errorf("timeseries: %d series but %d aggs", len(series), len(aggs))
	}
	resampled := make([]*Series, len(series))
	for i, s := range series {
		r, err := s.Resample(step, aggs[i])
		if err != nil {
			return nil, fmt.Errorf("aligning series %d: %w", i, err)
		}
		resampled[i] = r
	}
	start := resampled[0].start
	end := resampled[0].End()
	for _, r := range resampled[1:] {
		if r.start.After(start) {
			start = r.start
		}
		if r.End().Before(end) {
			end = r.End()
		}
	}
	if !start.Before(end) {
		return nil, fmt.Errorf("timeseries: series do not overlap: %w", ErrBadRange)
	}
	out := make([]*Series, len(resampled))
	for i, r := range resampled {
		sl, err := r.Slice(start, end)
		if err != nil {
			return nil, fmt.Errorf("slicing series %d: %w", i, err)
		}
		out[i] = sl
	}
	return out, nil
}

// Stats summarises a series, ignoring NaN samples.
type Stats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
	StdDev float64 `json:"stddev"`
	// ArgMax is the index of the first maximum sample (-1 when N==0):
	// for a hydrograph this is the time-to-peak sample.
	ArgMax int `json:"argMax"`
}

// Summarise computes Stats over the series.
func (s *Series) Summarise() Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1), ArgMax: -1}
	for i, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		st.N++
		st.Sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
			st.ArgMax = i
		}
	}
	if st.N == 0 {
		return Stats{ArgMax: -1, Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), StdDev: math.NaN()}
	}
	st.Mean = st.Sum / float64(st.N)
	var ss float64
	for _, v := range s.values {
		if math.IsNaN(v) {
			continue
		}
		d := v - st.Mean
		ss += d * d
	}
	st.StdDev = math.Sqrt(ss / float64(st.N))
	return st
}

// Quantile returns the q-quantile (0..1) of vals using linear interpolation.
// It returns ErrEmpty for an empty slice. vals need not be sorted.
func Quantile(vals []float64, q float64) (float64, error) {
	if len(vals) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
