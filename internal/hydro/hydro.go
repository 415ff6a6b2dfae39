// Package hydro defines the shared vocabulary of EVOp's hydrological
// modelling stack: forcing inputs, the rainfall-runoff model interface
// that TOPMODEL and every FUSE structure implement, and unit-hydrograph
// channel routing.
//
// Units convention: depths are millimetres per time step over the
// catchment area (rainfall, PET, and simulated discharge alike), which is
// the convention of the TOPMODEL literature; conversion to m3/s is a
// display concern handled by DischargeM3S.
package hydro

import (
	"errors"
	"fmt"
	"math"
	"time"

	"evop/internal/timeseries"
)

// Common errors.
var (
	// ErrBadForcing indicates inconsistent forcing series.
	ErrBadForcing = errors.New("hydro: invalid forcing")
	// ErrBadParam indicates a model parameter outside its valid range.
	ErrBadParam = errors.New("hydro: invalid parameter")
)

// Forcing is the meteorological input to a rainfall-runoff model: rainfall
// depth and potential evapotranspiration, both in mm per step on a common
// time base.
type Forcing struct {
	// Rain is rainfall depth in mm per step.
	Rain *timeseries.Series
	// PET is potential evapotranspiration in mm per step.
	PET *timeseries.Series
}

// Validate checks that the two series share start, step and length.
func (f Forcing) Validate() error {
	if f.Rain == nil || f.PET == nil {
		return fmt.Errorf("nil series: %w", ErrBadForcing)
	}
	if f.Rain.Step() != f.PET.Step() {
		return fmt.Errorf("rain step %v != pet step %v: %w", f.Rain.Step(), f.PET.Step(), ErrBadForcing)
	}
	if !f.Rain.Start().Equal(f.PET.Start()) {
		return fmt.Errorf("rain starts %v, pet starts %v: %w", f.Rain.Start(), f.PET.Start(), ErrBadForcing)
	}
	if f.Rain.Len() != f.PET.Len() {
		return fmt.Errorf("rain has %d steps, pet %d: %w", f.Rain.Len(), f.PET.Len(), ErrBadForcing)
	}
	if f.Rain.Len() == 0 {
		return fmt.Errorf("empty forcing: %w", ErrBadForcing)
	}
	for i := 0; i < f.Rain.Len(); i++ {
		if r := f.Rain.At(i); math.IsNaN(r) || r < 0 {
			return fmt.Errorf("rain[%d]=%v: %w", i, r, ErrBadForcing)
		}
		if e := f.PET.At(i); math.IsNaN(e) || e < 0 {
			return fmt.Errorf("pet[%d]=%v: %w", i, e, ErrBadForcing)
		}
	}
	return nil
}

// Len returns the number of forcing steps.
func (f Forcing) Len() int { return f.Rain.Len() }

// Step returns the forcing time step.
func (f Forcing) Step() time.Duration { return f.Rain.Step() }

// Model is a lumped rainfall-runoff model: given forcing it simulates
// discharge in mm per step at the catchment outlet.
type Model interface {
	// Name identifies the model ("topmodel", "fuse-070", ...).
	Name() string
	// Run simulates the discharge series for the forcing. The caller
	// owns the returned series.
	Run(f Forcing) (*timeseries.Series, error)
}

// DischargeM3S converts a discharge series from mm-per-step over a
// catchment of areaKM2 to cubic metres per second.
func DischargeM3S(q *timeseries.Series, areaKM2 float64) (*timeseries.Series, error) {
	if areaKM2 <= 0 {
		return nil, fmt.Errorf("area %v km2: %w", areaKM2, ErrBadParam)
	}
	secs := q.Step().Seconds()
	// mm over areaKM2 -> m3: 1 mm * 1 km2 = 1000 m3.
	factor := areaKM2 * 1000 / secs
	return q.Scale(factor), nil
}

// UnitHydrograph is a discrete transfer function used for channel routing:
// Ordinates[k] is the fraction of a pulse leaving the catchment k steps
// after it is generated. Ordinates sum to 1, so routing conserves mass.
type UnitHydrograph struct {
	Ordinates []float64
}

// TriangularUH builds a triangular unit hydrograph with the given time to
// peak and total base length (both in steps). This is the classic SCS
// shape used for small catchments.
func TriangularUH(timeToPeak, base int) (*UnitHydrograph, error) {
	if timeToPeak < 1 || base <= timeToPeak {
		return nil, fmt.Errorf("triangular UH tp=%d base=%d: %w", timeToPeak, base, ErrBadParam)
	}
	ord := make([]float64, base)
	var sum float64
	for k := range ord {
		x := float64(k) + 0.5
		var w float64
		if x <= float64(timeToPeak) {
			w = x / float64(timeToPeak)
		} else {
			w = (float64(base) - x) / float64(base-timeToPeak)
		}
		if w < 0 {
			w = 0
		}
		ord[k] = w
		sum += w
	}
	for k := range ord {
		ord[k] /= sum
	}
	return &UnitHydrograph{Ordinates: ord}, nil
}

// GammaUH builds a unit hydrograph from a discretised Gamma(shape, scale)
// distribution truncated at n steps — the routing choice offered by the
// FUSE framework.
func GammaUH(shape, scaleSteps float64, n int) (*UnitHydrograph, error) {
	if shape <= 0 || scaleSteps <= 0 || n < 1 {
		return nil, fmt.Errorf("gamma UH shape=%v scale=%v n=%d: %w", shape, scaleSteps, n, ErrBadParam)
	}
	ord := make([]float64, n)
	var sum float64
	for k := range ord {
		x := float64(k) + 0.5
		ord[k] = math.Pow(x/scaleSteps, shape-1) * math.Exp(-x/scaleSteps)
		sum += ord[k]
	}
	if sum == 0 {
		return nil, fmt.Errorf("gamma UH degenerate (shape=%v scale=%v n=%d): %w", shape, scaleSteps, n, ErrBadParam)
	}
	for k := range ord {
		ord[k] /= sum
	}
	return &UnitHydrograph{Ordinates: ord}, nil
}

// Route convolves the input series with the unit hydrograph. Output has
// the same time base; mass within the window is conserved (tail beyond the
// series end is truncated).
func (uh *UnitHydrograph) Route(in *timeseries.Series) *timeseries.Series {
	buf := make([]float64, in.Len())
	uh.RouteInto(in.Raw(), buf)
	out, _ := timeseries.Wrap(in.Start(), in.Step(), buf) // step valid by construction
	return out
}

// RouteInto convolves in with the unit hydrograph, accumulating into
// out, which must be zeroed and the same length as in. It is the
// allocation-free kernel behind Route.
func (uh *UnitHydrograph) RouteInto(in, out []float64) {
	n := len(in)
	ord := uh.Ordinates
	for i := 0; i < n; i++ {
		v := in[i]
		if v == 0 {
			continue
		}
		for k, w := range ord {
			j := i + k
			if j >= n {
				break
			}
			out[j] += v * w
		}
	}
}

// MassBalance summarises a simulation's water accounting; all terms in mm.
type MassBalance struct {
	RainIn    float64 `json:"rainIn"`
	ETOut     float64 `json:"etOut"`
	FlowOut   float64 `json:"flowOut"`
	StorageD  float64 `json:"storageDelta"`
	ClosureMM float64 `json:"closure"` // RainIn - ETOut - FlowOut - StorageD
}

// Closure returns the absolute mass-balance error as a fraction of
// rainfall input (0 is perfect closure).
func (m MassBalance) Closure() float64 {
	if m.RainIn == 0 {
		return math.Abs(m.ClosureMM)
	}
	return math.Abs(m.ClosureMM) / m.RainIn
}
