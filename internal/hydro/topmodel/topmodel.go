// Package topmodel implements TOPMODEL (Beven & Kirkby 1979), the
// quasi-physical, topographic-index-based rainfall-runoff model the EVOp
// LEFT exemplar deployed in the cloud for its Morland flooding tool.
//
// The implementation follows the classic exponential-transmissivity
// formulation: the catchment is discretised by its topographic index
// distribution ln(a/tanB); the saturated zone is a single exponential
// store whose mean deficit SBar maps to a local deficit per index class;
// classes whose deficit reaches zero generate saturation-excess overland
// flow; the unsaturated zone drains to the water table with a deficit-
// proportional time delay; generated runoff is routed to the outlet with
// a triangular unit hydrograph.
//
// Units: depths in mm per time step; the step is taken from the forcing.
package topmodel

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/timeseries"
)

// ErrBadParams indicates an invalid parameter set.
var ErrBadParams = errors.New("topmodel: invalid parameters")

// Params are TOPMODEL's calibration parameters.
type Params struct {
	// M is the exponential scaling parameter of transmissivity decline
	// with deficit (mm). Small M = flashy; large M = damped.
	M float64 `json:"m"`
	// LnTe is the log of the areal average effective transmissivity
	// (ln(mm/step)).
	LnTe float64 `json:"lnTe"`
	// SRMax is the root zone available water capacity (mm).
	SRMax float64 `json:"srMax"`
	// SR0 is the initial root zone deficit (mm), in [0, SRMax].
	SR0 float64 `json:"sr0"`
	// TD is the unsaturated zone time delay per unit deficit (step/mm).
	TD float64 `json:"td"`
	// Q0 is the initial discharge (mm/step) used to initialise the mean
	// deficit.
	Q0 float64 `json:"q0"`
	// RoutePeakSteps is the triangular unit hydrograph time-to-peak in
	// steps.
	RoutePeakSteps int `json:"routePeakSteps"`
	// RouteBaseSteps is the unit hydrograph base length in steps.
	RouteBaseSteps int `json:"routeBaseSteps"`
}

// DefaultParams returns a parameter set behaving plausibly for a small
// wet upland catchment at an hourly step.
func DefaultParams() Params {
	return Params{
		M:              28,
		LnTe:           5.5,
		SRMax:          40,
		SR0:            2,
		TD:             2,
		Q0:             0.05,
		RoutePeakSteps: 3,
		RouteBaseSteps: 12,
	}
}

// maxRouteBaseSteps caps the unit hydrograph's base length: New
// allocates one ordinate per step, and a request body sets the length.
// A leap year of hourly steps is longer than the hourly forcing record
// the portal builds by default (120 days) and far longer than a
// headwater catchment's response, so the cap bounds the allocation
// without refusing a routing any real run would use.
const maxRouteBaseSteps = 366 * 24

// Validate checks parameter ranges.
func (p Params) Validate() error {
	switch {
	case p.M <= 0 || math.IsNaN(p.M):
		return fmt.Errorf("M=%v: %w", p.M, ErrBadParams)
	case math.IsNaN(p.LnTe):
		return fmt.Errorf("LnTe=%v: %w", p.LnTe, ErrBadParams)
	case p.SRMax <= 0:
		return fmt.Errorf("SRMax=%v: %w", p.SRMax, ErrBadParams)
	case p.SR0 < 0 || p.SR0 > p.SRMax:
		return fmt.Errorf("SR0=%v outside [0, SRMax=%v]: %w", p.SR0, p.SRMax, ErrBadParams)
	case p.TD <= 0:
		return fmt.Errorf("TD=%v: %w", p.TD, ErrBadParams)
	case p.Q0 <= 0:
		return fmt.Errorf("Q0=%v: %w", p.Q0, ErrBadParams)
	case p.RoutePeakSteps < 1 || p.RouteBaseSteps <= p.RoutePeakSteps:
		return fmt.Errorf("routing tp=%d base=%d: %w", p.RoutePeakSteps, p.RouteBaseSteps, ErrBadParams)
	case p.RouteBaseSteps > maxRouteBaseSteps:
		return fmt.Errorf("routing base=%d above %d steps: %w", p.RouteBaseSteps, maxRouteBaseSteps, ErrBadParams)
	}
	return nil
}

// Model is a configured TOPMODEL instance for one catchment.
type Model struct {
	params Params
	ti     *catchment.TIDistribution
	uh     *hydro.UnitHydrograph
}

var _ hydro.Model = (*Model)(nil)

// New builds a Model from parameters and a topographic index
// distribution.
func New(params Params, ti *catchment.TIDistribution) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if ti == nil {
		return nil, fmt.Errorf("nil TI distribution: %w", ErrBadParams)
	}
	if err := ti.Validate(); err != nil {
		return nil, fmt.Errorf("TI distribution: %w", err)
	}
	uh, err := hydro.TriangularUH(params.RoutePeakSteps, params.RouteBaseSteps)
	if err != nil {
		return nil, fmt.Errorf("building routing: %w", err)
	}
	return &Model{params: params, ti: ti, uh: uh}, nil
}

// Name implements hydro.Model.
func (m *Model) Name() string { return "topmodel" }

// Params returns the model's parameter set.
func (m *Model) Params() Params { return m.params }

// Output holds the full simulation products the LEFT widget visualises.
type Output struct {
	// Discharge is total routed streamflow, mm per step.
	Discharge *timeseries.Series
	// Baseflow is the subsurface contribution before routing, mm/step.
	Baseflow *timeseries.Series
	// Overland is saturation-excess flow before routing, mm/step.
	Overland *timeseries.Series
	// SatFraction is the fraction of the catchment saturated each step.
	SatFraction *timeseries.Series
	// ActualET is actual evapotranspiration, mm/step.
	ActualET *timeseries.Series
	// Balance is the simulation's water accounting.
	Balance hydro.MassBalance
}

// scratch holds every buffer a simulation needs — per-bin state, the
// five output series and the routed discharge — so repeated runs
// through runDetailed allocate nothing in steady state. The zero value
// is ready to use and grows lazily on first run; a scratch must not be
// shared between concurrent runs.
type scratch struct {
	suz []float64 // unsaturated storage per TI class
	off []float64 // precomputed local-deficit offsets M*(lambda-Values[i])

	qTotal, qBase, qOver, satFrac, aet, discharge *timeseries.Series
	out                                           Output
}

// scratchPool recycles Run's simulation buffers across calls and
// goroutines. A pooled scratch may hold a longer run's buffers;
// runDetailed renews every one to the forcing's length first.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Run implements hydro.Model, returning routed discharge. The simulation
// runs in a pooled scratch, so a run allocates only the returned series,
// which the caller owns.
func (m *Model) Run(f hydro.Forcing) (*timeseries.Series, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	out, err := m.runDetailed(f, sc)
	if err != nil {
		return nil, err
	}
	return out.Discharge.Clone(), nil
}

// RunDetailed simulates and returns all output components.
func (m *Model) RunDetailed(f hydro.Forcing) (*Output, error) {
	return m.runDetailed(f, &scratch{})
}

// renewFloats returns buf resized to n with every element zero, reusing
// its backing array when capacity allows.
func renewFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// runDetailed simulates into sc: in steady state (same forcing length
// run to run) it allocates nothing. The returned Output and its series
// alias sc and are valid until sc's next run.
func (m *Model) runDetailed(f hydro.Forcing, sc *scratch) (*Output, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	p := m.params
	lambda := m.ti.Mean
	nBins := len(m.ti.Values)
	n := f.Len()
	start, step := f.Rain.Start(), f.Rain.Step()

	for _, series := range []**timeseries.Series{
		&sc.qTotal, &sc.qBase, &sc.qOver, &sc.satFrac, &sc.aet, &sc.discharge,
	} {
		renewed, err := timeseries.Renew(*series, start, step, n)
		if err != nil {
			return nil, err
		}
		*series = renewed
	}
	qTotal := sc.qTotal.Raw()
	qBase := sc.qBase.Raw()
	qOver := sc.qOver.Raw()
	satFrac := sc.satFrac.Raw()
	aet := sc.aet.Raw()
	rain := f.Rain.Raw()
	pet := f.PET.Raw()
	fractions := m.ti.Fractions

	// SZQ is the subsurface flow at zero mean deficit.
	szq := math.Exp(p.LnTe - lambda)
	// Initialise mean deficit from the initial discharge.
	sbar := -p.M * math.Log(p.Q0/szq)
	if sbar < 0 {
		sbar = 0
	}
	srz := p.SR0 // root zone deficit
	sc.suz = renewFloats(sc.suz, nBins)
	sc.off = renewFloats(sc.off, nBins)
	suz, off := sc.suz, sc.off
	// The local-deficit offset of each TI class is constant for the whole
	// run; hoist it out of the time loop (it was recomputed every step).
	for i := 0; i < nBins; i++ {
		off[i] = p.M * (lambda - m.ti.Values[i])
	}

	storage := func() float64 {
		s := -sbar - srz
		for i, u := range suz {
			s += u * fractions[i]
		}
		return s
	}
	s0 := storage()

	var rainIn, etOut, flowOut float64
	for t := 0; t < n; t++ {
		rainT := rain[t]
		petT := pet[t]
		rainIn += rainT

		// Root zone: rainfall first satisfies the root zone deficit.
		fill := rainT
		if fill > srz {
			fill = srz
		}
		srz -= fill
		excess := rainT - fill

		// Actual ET drawn from the root zone, reduced as it dries.
		ea := petT * (1 - srz/p.SRMax)
		if ea < 0 {
			ea = 0
		}
		if srz+ea > p.SRMax {
			ea = p.SRMax - srz
		}
		srz += ea
		etOut += ea
		aet[t] = ea

		// Baseflow from the exponential saturated store.
		qb := szq * math.Exp(-sbar/p.M)

		// Distribute excess over TI classes; generate overland flow and
		// recharge.
		var qof, qv, sat float64
		for i := 0; i < nBins; i++ {
			frac := fractions[i]
			if frac == 0 {
				continue
			}
			// Local deficit for this index class.
			si := sbar + off[i]
			if si < 0 {
				si = 0
			}
			suz[i] += excess
			if si <= 0 {
				// Saturated: everything runs off.
				qof += frac * suz[i]
				sat += frac
				suz[i] = 0
				continue
			}
			if suz[i] > si {
				// Storage above the local deficit spills as overland flow.
				qof += frac * (suz[i] - si)
				suz[i] = si
			}
			// Gravity drainage to the water table.
			quz := suz[i] / (si * p.TD)
			if quz > suz[i] {
				quz = suz[i]
			}
			suz[i] -= quz
			qv += frac * quz
		}

		// Update the mean deficit; a negative deficit means the whole
		// catchment is saturated and the surplus leaves as overland flow.
		sbar += qb - qv
		if sbar < 0 {
			qof += -sbar
			sbar = 0
		}

		qBase[t] = qb
		qOver[t] = qof
		satFrac[t] = sat
		qTotal[t] = qb + qof
		flowOut += qb + qof
	}

	balance := hydro.MassBalance{
		RainIn:   rainIn,
		ETOut:    etOut,
		FlowOut:  flowOut,
		StorageD: storage() - s0,
	}
	balance.ClosureMM = balance.RainIn - balance.ETOut - balance.FlowOut - balance.StorageD

	m.uh.RouteInto(qTotal, sc.discharge.Raw())
	sc.out = Output{
		Discharge:   sc.discharge,
		Baseflow:    sc.qBase,
		Overland:    sc.qOver,
		SatFraction: sc.satFrac,
		ActualET:    sc.aet,
		Balance:     balance,
	}
	return &sc.out, nil
}
