// Package lowflow implements low-flow and drought analysis — the other
// half of the paper's motivation ("droughts in Australia and California",
// Section I). Where the LEFT exemplar asks about flood peaks, a water
// company or regulator asks the opposite questions of the same simulated
// discharge: how low do flows get, how long do dry spells last, and what
// does a land-use change do to both.
//
// Methods (standard low-flow hydrology):
//
//   - flow duration curve (FDC) and its exceedance quantiles (Q95 is the
//     UK's standard low-flow index: the flow exceeded 95% of the time);
//   - threshold-level drought analysis: contiguous spells below a
//     threshold (usually Q90), each with duration and deficit volume;
//   - baseflow index (BFI) via the quality package's Lyne-Hollick filter.
package lowflow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"evop/internal/hydro/quality"
	"evop/internal/timeseries"
)

// ErrBadInput indicates an invalid series or parameter.
var ErrBadInput = errors.New("lowflow: invalid input")

// FDC is a flow duration curve: flow as a function of exceedance
// probability.
type FDC struct {
	// sorted holds flows in descending order.
	sorted []float64
}

// NewFDC builds a flow duration curve from a discharge series.
func NewFDC(q *timeseries.Series) (*FDC, error) {
	if q == nil || q.Len() == 0 {
		return nil, fmt.Errorf("empty series: %w", ErrBadInput)
	}
	vals := q.Values()
	for i, v := range vals {
		if v < 0 {
			return nil, fmt.Errorf("negative flow at %d: %w", i, ErrBadInput)
		}
	}
	// Descending, NaN last. cmp.Compare(b, a) < 0 exactly when
	// sort.Reverse(sort.Float64Slice) puts a before b, and pdqsort asks
	// nothing else, so both sorts leave the same permutation bit for bit
	// (TestFDCSortMatchesReference).
	slices.SortFunc(vals, func(a, b float64) int { return cmp.Compare(b, a) })
	return &FDC{sorted: vals}, nil
}

// Exceedance returns the flow exceeded p percent of the time (Q95 is
// Exceedance(95)).
func (f *FDC) Exceedance(p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("exceedance %v%%: %w", p, ErrBadInput)
	}
	pos := p / 100 * float64(len(f.sorted)-1)
	lo := int(pos)
	hi := lo
	if lo+1 < len(f.sorted) {
		hi = lo + 1
	}
	frac := pos - float64(lo)
	return f.sorted[lo]*(1-frac) + f.sorted[hi]*frac, nil
}

// Drought is one spell below the threshold.
type Drought struct {
	// Start is the first below-threshold step.
	Start time.Time `json:"start"`
	// Duration is the spell length.
	Duration time.Duration `json:"duration"`
	// DeficitMM is the accumulated shortfall below the threshold.
	DeficitMM float64 `json:"deficitMm"`
}

// Droughts extracts threshold-level drought events: maximal contiguous
// runs with flow strictly below the threshold. Spells shorter than
// minSteps are discarded (standard pooling of trivial dips).
func Droughts(q *timeseries.Series, threshold float64, minSteps int) ([]Drought, error) {
	if q == nil || q.Len() == 0 {
		return nil, fmt.Errorf("empty series: %w", ErrBadInput)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("threshold %v: %w", threshold, ErrBadInput)
	}
	if minSteps < 1 {
		minSteps = 1
	}
	var out []Drought
	inSpell := false
	var start int
	var deficit float64
	flush := func(end int) {
		if !inSpell {
			return
		}
		if end-start >= minSteps {
			out = append(out, Drought{
				Start:     q.TimeAt(start),
				Duration:  time.Duration(end-start) * q.Step(),
				DeficitMM: deficit,
			})
		}
		inSpell = false
		deficit = 0
	}
	for i := 0; i < q.Len(); i++ {
		v := q.At(i)
		if v < threshold {
			if !inSpell {
				inSpell = true
				start = i
			}
			deficit += threshold - v
			continue
		}
		flush(i)
	}
	flush(q.Len())
	return out, nil
}

// Summary is the low-flow report for one simulation.
type Summary struct {
	// Q95 and Q70 are exceedance flows (mm/step).
	Q95 float64 `json:"q95"`
	Q70 float64 `json:"q70"`
	// BFI is the baseflow index: baseflow volume / total volume.
	BFI float64 `json:"bfi"`
	// Droughts are the spells below Q90 lasting at least a day.
	Droughts []Drought `json:"droughts"`
	// LongestDrought is the maximum spell duration (0 when none).
	LongestDrought time.Duration `json:"longestDrought"`
	// TotalDeficitMM sums all drought deficits.
	TotalDeficitMM float64 `json:"totalDeficitMm"`
}

// Analyse computes the standard low-flow report: exceedance quantiles,
// baseflow index, and sub-Q90 drought spells of at least one day.
func Analyse(q *timeseries.Series) (*Summary, error) {
	fdc, err := NewFDC(q)
	if err != nil {
		return nil, err
	}
	q95, err := fdc.Exceedance(95)
	if err != nil {
		return nil, err
	}
	q90, err := fdc.Exceedance(90)
	if err != nil {
		return nil, err
	}
	q70, err := fdc.Exceedance(70)
	if err != nil {
		return nil, err
	}
	base, err := quality.Baseflow(q, 0.95, 3)
	if err != nil {
		return nil, fmt.Errorf("separating baseflow: %w", err)
	}
	total := q.Summarise().Sum
	bfi := 0.0
	if total > 0 {
		bfi = base.Summarise().Sum / total
	}
	minSteps := int(24 * time.Hour / q.Step())
	if minSteps < 1 {
		minSteps = 1
	}
	droughts, err := Droughts(q, q90, minSteps)
	if err != nil {
		return nil, err
	}
	s := &Summary{Q95: q95, Q70: q70, BFI: bfi, Droughts: droughts}
	for _, d := range droughts {
		if d.Duration > s.LongestDrought {
			s.LongestDrought = d.Duration
		}
		s.TotalDeficitMM += d.DeficitMM
	}
	return s, nil
}
