// Package fuse implements a FUSE-style modular rainfall-runoff framework
// (Clark et al. 2008), the multi-model ensemble the EVOp LEFT exemplar
// deployed alongside TOPMODEL. FUSE's idea is that a conceptual model is a
// set of interchangeable structural decisions; every combination of
// decisions yields a distinct model, and running the ensemble exposes
// structural uncertainty.
//
// Decisions implemented (three axes, plus optional routing):
//
//   - upper-zone architecture: a single bucket, or a tension/free split;
//   - percolation: rate driven by free storage above field capacity, or a
//     power function of total water content;
//   - baseflow: a linear reservoir, a nonlinear power reservoir, or two
//     parallel linear reservoirs;
//   - routing: none, or a Gamma unit hydrograph.
//
// Units follow the rest of the stack: mm per step.
package fuse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"evop/internal/hydro"
	"evop/internal/sched"
	"evop/internal/timeseries"
)

// ErrBadDecision indicates an unknown structural decision value.
var ErrBadDecision = errors.New("fuse: invalid structural decision")

// ErrBadParams indicates an invalid parameter set.
var ErrBadParams = errors.New("fuse: invalid parameters")

// UpperZone selects the upper soil zone architecture.
type UpperZone int

// Upper zone architectures.
const (
	// UpperSingle is one bucket supplying both ET and percolation.
	UpperSingle UpperZone = iota + 1
	// UpperTensionFree splits tension storage (supplies ET) from free
	// storage (drains).
	UpperTensionFree
)

// Percolation selects how drainage from the upper to lower zone is
// computed.
type Percolation int

// Percolation formulations.
const (
	// PercFieldCap drains free storage above field capacity at a linear
	// rate.
	PercFieldCap Percolation = iota + 1
	// PercWaterContent drains as a power function of relative water
	// content.
	PercWaterContent
)

// Baseflow selects the lower zone discharge function.
type Baseflow int

// Baseflow formulations.
const (
	// BaseLinear is a single linear reservoir.
	BaseLinear Baseflow = iota + 1
	// BasePower is a nonlinear (power-law) reservoir.
	BasePower
	// BaseParallel is two parallel linear reservoirs (fast + slow).
	BaseParallel
)

// Routing selects channel routing.
type Routing int

// Routing options.
const (
	// RouteNone passes generated runoff straight to the outlet.
	RouteNone Routing = iota + 1
	// RouteGammaUH convolves runoff with a Gamma unit hydrograph.
	RouteGammaUH
)

// Decisions is one structural configuration of the framework.
type Decisions struct {
	Upper   UpperZone   `json:"upper"`
	Perc    Percolation `json:"perc"`
	Base    Baseflow    `json:"base"`
	Routing Routing     `json:"routing"`
}

// Validate checks all decisions are known values.
func (d Decisions) Validate() error {
	if d.Upper < UpperSingle || d.Upper > UpperTensionFree {
		return fmt.Errorf("upper=%d: %w", d.Upper, ErrBadDecision)
	}
	if d.Perc < PercFieldCap || d.Perc > PercWaterContent {
		return fmt.Errorf("perc=%d: %w", d.Perc, ErrBadDecision)
	}
	if d.Base < BaseLinear || d.Base > BaseParallel {
		return fmt.Errorf("base=%d: %w", d.Base, ErrBadDecision)
	}
	if d.Routing < RouteNone || d.Routing > RouteGammaUH {
		return fmt.Errorf("routing=%d: %w", d.Routing, ErrBadDecision)
	}
	return nil
}

// String encodes the decisions compactly, e.g. "fuse-1211".
func (d Decisions) String() string {
	return fmt.Sprintf("fuse-%d%d%d%d", d.Upper, d.Perc, d.Base, d.Routing)
}

// AllDecisions enumerates every structural combination (2*2*3*2 = 24
// model structures).
func AllDecisions() []Decisions {
	var out []Decisions
	for _, u := range []UpperZone{UpperSingle, UpperTensionFree} {
		for _, p := range []Percolation{PercFieldCap, PercWaterContent} {
			for _, b := range []Baseflow{BaseLinear, BasePower, BaseParallel} {
				for _, r := range []Routing{RouteNone, RouteGammaUH} {
					out = append(out, Decisions{Upper: u, Perc: p, Base: b, Routing: r})
				}
			}
		}
	}
	return out
}

// Params are the framework's calibration parameters. Not every parameter
// is active in every structure; inactive ones are ignored.
type Params struct {
	// UZMax is upper zone capacity (mm).
	UZMax float64 `json:"uzMax"`
	// TensionFrac is the fraction of UZMax that is tension storage
	// (UpperTensionFree only).
	TensionFrac float64 `json:"tensionFrac"`
	// LZMax is lower zone capacity (mm).
	LZMax float64 `json:"lzMax"`
	// B is the saturated-area (ARNO/VIC) exponent for surface runoff.
	B float64 `json:"b"`
	// KPerc is the maximum percolation rate (mm/step).
	KPerc float64 `json:"kPerc"`
	// CPerc is the water-content percolation exponent (PercWaterContent).
	CPerc float64 `json:"cPerc"`
	// FieldCapFrac is field capacity as a fraction of UZMax
	// (PercFieldCap).
	FieldCapFrac float64 `json:"fieldCapFrac"`
	// KBase is the baseflow rate constant (1/step).
	KBase float64 `json:"kBase"`
	// NBase is the nonlinear baseflow exponent (BasePower).
	NBase float64 `json:"nBase"`
	// FracFast splits BaseParallel reservoirs.
	FracFast float64 `json:"fracFast"`
	// KFast, KSlow are the parallel reservoir constants (1/step).
	KFast float64 `json:"kFast"`
	KSlow float64 `json:"kSlow"`
	// RouteShape, RouteScaleSteps parameterise the Gamma unit hydrograph
	// (RouteGammaUH).
	RouteShape      float64 `json:"routeShape"`
	RouteScaleSteps float64 `json:"routeScaleSteps"`
}

// DefaultParams returns a plausible hourly parameter set for a small wet
// catchment.
func DefaultParams() Params {
	return Params{
		UZMax:           60,
		TensionFrac:     0.5,
		LZMax:           250,
		B:               0.4,
		KPerc:           1.2,
		CPerc:           2,
		FieldCapFrac:    0.4,
		KBase:           0.008,
		NBase:           1.5,
		FracFast:        0.6,
		KFast:           0.05,
		KSlow:           0.002,
		RouteShape:      2.5,
		RouteScaleSteps: 2,
	}
}

// Validate checks parameter ranges. Every parameter must be finite: an
// infinite capacity, exponent or routing shape runs to a non-finite
// hydrograph.
func (p Params) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{positive(p.UZMax), "UZMax"},
		{p.TensionFrac > 0 && p.TensionFrac < 1, "TensionFrac"},
		{positive(p.LZMax), "LZMax"},
		{positive(p.B), "B"},
		{p.KPerc >= 0 && !math.IsInf(p.KPerc, 1), "KPerc"},
		{positive(p.CPerc), "CPerc"},
		{p.FieldCapFrac > 0 && p.FieldCapFrac < 1, "FieldCapFrac"},
		{p.KBase > 0 && p.KBase <= 1, "KBase"},
		{p.NBase >= 1 && !math.IsInf(p.NBase, 1), "NBase"},
		{p.FracFast >= 0 && p.FracFast <= 1, "FracFast"},
		{p.KFast > 0 && p.KFast <= 1, "KFast"},
		{p.KSlow > 0 && p.KSlow <= 1, "KSlow"},
		{positive(p.RouteShape), "RouteShape"},
		{positive(p.RouteScaleSteps), "RouteScaleSteps"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("%s out of range: %w", c.what, ErrBadParams)
		}
	}
	return nil
}

// positive reports whether v is finite and above zero.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Model is one FUSE structure with parameters.
type Model struct {
	dec    Decisions
	params Params
	uh     *hydro.UnitHydrograph // nil when RouteNone
	// lzScale is LZMax^(NBase-1), the BasePower reservoir's divisor,
	// computed once per model instead of once per step.
	lzScale float64
}

var _ hydro.Model = (*Model)(nil)

// scratch holds the reusable simulation buffers (generated runoff plus
// the routed series) so repeated runs through runInto allocate nothing
// in steady state. The zero value is ready to use; a scratch must not be
// shared between concurrent runs.
type scratch struct {
	raw    *timeseries.Series
	routed *timeseries.Series
}

// New builds a Model from decisions and parameters.
func New(dec Decisions, params Params) (*Model, error) {
	if err := dec.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Model{dec: dec, params: params}
	if dec.Base == BasePower {
		m.lzScale = math.Pow(params.LZMax, params.NBase-1)
	}
	if dec.Routing == RouteGammaUH {
		uh, err := hydro.GammaUH(params.RouteShape, params.RouteScaleSteps, 24)
		if err != nil {
			return nil, fmt.Errorf("building routing: %w", err)
		}
		m.uh = uh
	}
	return m, nil
}

// Name implements hydro.Model.
func (m *Model) Name() string { return m.dec.String() }

// scratchPool recycles Run's simulation buffers across calls and
// goroutines. A pooled scratch may hold a longer run's buffers; runInto
// renews each one to the forcing's length first.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Run implements hydro.Model. The simulation runs in a pooled scratch,
// so a run allocates only the returned series, which the caller owns.
func (m *Model) Run(f hydro.Forcing) (*timeseries.Series, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	q, err := m.runInto(f, sc)
	if err != nil {
		return nil, err
	}
	return q.Clone(), nil
}

// runInto simulates validated forcing f in sc. The state loop writes
// sc.raw; a routed model then convolves it into sc.routed, leaving
// sc.raw as the unrouted twin. The returned series is sc's, valid until
// sc's next run.
func (m *Model) runInto(f hydro.Forcing, sc *scratch) (*timeseries.Series, error) {
	p := m.params
	n := f.Len()
	q, err := timeseries.Renew(sc.raw, f.Rain.Start(), f.Rain.Step(), n)
	if err != nil {
		return nil, err
	}
	sc.raw = q
	qv := q.Raw()
	rainV := f.Rain.Raw()
	petV := f.PET.Raw()

	// States. For UpperSingle, uzTension carries the whole upper zone.
	tensionMax := p.UZMax
	freeMax := 0.0
	if m.dec.Upper == UpperTensionFree {
		tensionMax = p.UZMax * p.TensionFrac
		freeMax = p.UZMax - tensionMax
	}
	uzTension := tensionMax * 0.3
	uzFree := 0.0
	lz := p.LZMax * 0.3

	for t := 0; t < n; t++ {
		rain := rainV[t]
		pet := petV[t]

		// Saturated-area surface runoff (ARNO/VIC): the wetter the lower
		// zone, the larger the contributing area.
		satArea := 1 - math.Pow(1-clamp01(lz/p.LZMax), p.B)
		qsx := rain * satArea
		infil := rain - qsx

		// Fill tension storage first; spill to free storage (or straight
		// onward for the single-bucket architecture).
		uzTension += infil
		spill := 0.0
		if uzTension > tensionMax {
			spill = uzTension - tensionMax
			uzTension = tensionMax
		}
		var perc float64
		switch m.dec.Upper {
		case UpperTensionFree:
			uzFree += spill
			if uzFree > freeMax {
				qsx += uzFree - freeMax // upper zone overflow
				uzFree = freeMax
			}
			perc = m.percolation(uzFree, freeMax)
			if perc > uzFree {
				perc = uzFree
			}
			uzFree -= perc
		default: // UpperSingle: spill percolates or runs off
			perc = m.percolation(uzTension+spill, p.UZMax)
			if perc > spill {
				// Draw the remainder from the bucket itself.
				extra := perc - spill
				if extra > uzTension {
					extra = uzTension
				}
				uzTension -= extra
				perc = spill + extra
				spill = 0
			} else {
				spill -= perc
			}
			qsx += spill // whatever did not percolate runs off
		}

		// ET from tension storage.
		ea := pet * clamp01(uzTension/tensionMax)
		if ea > uzTension {
			ea = uzTension
		}
		uzTension -= ea

		// Lower zone water balance.
		lz += perc
		if lz > p.LZMax {
			qsx += lz - p.LZMax
			lz = p.LZMax
		}
		qb := m.baseflow(lz)
		if qb > lz {
			qb = lz
		}
		lz -= qb

		qv[t] = qsx + qb
	}

	if m.uh == nil {
		return q, nil
	}
	routed, err := timeseries.Renew(sc.routed, f.Rain.Start(), f.Rain.Step(), n)
	if err != nil {
		return nil, err
	}
	sc.routed = routed
	m.uh.RouteInto(qv, routed.Raw())
	return routed, nil
}

func (m *Model) percolation(store, capacity float64) float64 {
	if capacity <= 0 || store <= 0 {
		return 0
	}
	switch m.dec.Perc {
	case PercWaterContent:
		return m.params.KPerc * math.Pow(clamp01(store/capacity), m.params.CPerc)
	default: // PercFieldCap
		fc := m.params.FieldCapFrac * capacity
		if store <= fc {
			return 0
		}
		return m.params.KPerc * (store - fc) / (capacity - fc)
	}
}

func (m *Model) baseflow(lz float64) float64 {
	p := m.params
	switch m.dec.Base {
	case BasePower:
		return p.KBase * math.Pow(lz, p.NBase) / m.lzScale
	case BaseParallel:
		return p.FracFast*p.KFast*lz + (1-p.FracFast)*p.KSlow*lz
	default: // BaseLinear
		return p.KBase * lz
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RunEnsembleOn runs one Model per decision set with shared parameters
// and returns the ensemble-mean discharge, a series the caller owns.
// Decision sets that differ only in Routing share one task: the state
// loop never reads Routing, so it runs once for both twins, and the
// routed twin convolves the same generated runoff. Tasks run in parallel
// on the compute pool; a nil pool runs them sequentially on the calling
// goroutine. Cancellation is checked between tasks: each is a full
// simulation, so the boundary between them is where abandoning a
// canceled request saves real work without threading a context through
// the inner kernel.
//
// Each task simulates into pooled scratch, and the members are summed
// from there in decision-index order, so the mean is the only series a
// run allocates and is bit-identical for any worker count. When visit is
// non-nil it is called once per member, in decision order, with the
// member's discharge; the series is valid only during the call, and an
// error from visit ends the run with that error.
func RunEnsembleOn(ctx context.Context, p *sched.Pool, decs []Decisions, params Params, f hydro.Forcing, visit func(i int, q *timeseries.Series) error) (*timeseries.Series, error) {
	if len(decs) == 0 {
		return nil, fmt.Errorf("no decisions: %w", ErrBadDecision)
	}
	// Validate the inputs up front, the decision sets in order: tasks
	// then fail only on their own simulation, and every failure mode
	// surfaces the same error a sequential loop would have hit first.
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("building %v: %w", decs[0], err)
	}
	for _, d := range decs {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("building %v: %w", d, err)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("running %v: %w", decs[0], err)
	}

	// task[i] is the task that simulates decs[i]; a task is routed when
	// any of its members is.
	task := make([]int, len(decs))
	states := make([]Decisions, 0, len(decs))
	for i, d := range decs {
		d.Routing = RouteNone
		k := slices.Index(states, d)
		if k < 0 {
			k = len(states)
			states = append(states, d)
		}
		task[i] = k
		if decs[i].Routing == RouteGammaUH {
			states[k].Routing = RouteGammaUH
		}
	}
	scs := make([]*scratch, len(states))
	defer func() {
		for _, sc := range scs {
			if sc != nil {
				scratchPool.Put(sc)
			}
		}
	}()
	err := sched.ForEach(ctx, p, sched.ClassModel, len(states), func(k int) error {
		m, err := New(states[k], params)
		if err != nil {
			return fmt.Errorf("building %v: %w", states[k], err)
		}
		sc := scratchPool.Get().(*scratch)
		scs[k] = sc
		if _, err := m.runInto(f, sc); err != nil {
			return fmt.Errorf("running %v: %w", states[k], err)
		}
		return nil
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, fmt.Errorf("ensemble canceled: %w", err)
		}
		return nil, err
	}

	// Sum in decision-index order into the one series the run keeps: the
	// same element-wise additions, in the same order, as a sum.Add chain.
	var mean []float64
	for i, d := range decs {
		q := scs[task[i]].raw
		if d.Routing == RouteGammaUH {
			q = scs[task[i]].routed
		}
		if visit != nil {
			if err := visit(i, q); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			mean = q.Values()
			continue
		}
		qv := q.Raw()
		for t := range mean {
			mean[t] += qv[t]
		}
	}
	k := 1 / float64(len(decs))
	for t := range mean {
		mean[t] *= k
	}
	return timeseries.Wrap(f.Rain.Start(), f.Rain.Step(), mean)
}
