// Package quality implements catchment water-quality export modelling —
// the follow-up the paper's final evaluation workshops asked for: "The
// last evaluation workshops saw enthusiasm from stakeholders to develop
// new tools based on new storyboards (e.g. what would be the impact of
// this scenario on catchment water quality)" (Section VI). This package
// is that tool, built on the same simulated hydrology.
//
// Methods (standard diffuse-pollution practice):
//
//   - baseflow separation with the Lyne-Hollick recursive digital filter,
//     so loads can be split into baseflow and stormflow pathways;
//   - suspended sediment from a power-law rating curve C = a*Q^b applied
//     to total flow;
//   - phosphorus and nitrate via the event-mean-concentration (EMC)
//     method: a baseflow concentration on the slowflow fraction and a
//     (higher) event concentration on the quickflow fraction.
//
// Land-use scenarios shift the coefficients (compaction mobilises more
// sediment and P; afforestation buffers both), so the LEFT scenario
// presets translate directly into water-quality impact.
package quality

import (
	"errors"
	"fmt"
	"math"

	"evop/internal/timeseries"
)

// ErrBadParams indicates an invalid parameter set or input.
var ErrBadParams = errors.New("quality: invalid parameters")

// Params are the export model coefficients.
type Params struct {
	// SedA, SedB are the sediment rating curve coefficients:
	// concentration (mg/l) = SedA * Q^SedB with Q in mm/h.
	SedA float64 `json:"sedA"`
	SedB float64 `json:"sedB"`
	// PBaseMgL and PStormMgL are total phosphorus event mean
	// concentrations on the baseflow and quickflow pathways (mg/l).
	PBaseMgL  float64 `json:"pBaseMgL"`
	PStormMgL float64 `json:"pStormMgL"`
	// NBaseMgL and NStormMgL are nitrate-N concentrations (mg/l);
	// nitrate typically travels with baseflow.
	NBaseMgL  float64 `json:"nBaseMgL"`
	NStormMgL float64 `json:"nStormMgL"`
	// FilterAlpha is the Lyne-Hollick filter parameter (0.9..0.99).
	FilterAlpha float64 `json:"filterAlpha"`
}

// DefaultParams returns coefficients representative of a UK improved-
// pasture headwater catchment.
func DefaultParams() Params {
	return Params{
		SedA:        45,
		SedB:        1.4,
		PBaseMgL:    0.03,
		PStormMgL:   0.25,
		NBaseMgL:    2.4,
		NStormMgL:   1.2,
		FilterAlpha: 0.95,
	}
}

// Validate checks coefficient ranges.
func (p Params) Validate() error {
	switch {
	case p.SedA <= 0 || math.IsNaN(p.SedA):
		return fmt.Errorf("SedA=%v: %w", p.SedA, ErrBadParams)
	case p.SedB <= 0:
		return fmt.Errorf("SedB=%v: %w", p.SedB, ErrBadParams)
	case p.PBaseMgL < 0 || p.PStormMgL < 0:
		return fmt.Errorf("P concentrations: %w", ErrBadParams)
	case p.NBaseMgL < 0 || p.NStormMgL < 0:
		return fmt.Errorf("N concentrations: %w", ErrBadParams)
	case p.FilterAlpha <= 0 || p.FilterAlpha >= 1:
		return fmt.Errorf("FilterAlpha=%v: %w", p.FilterAlpha, ErrBadParams)
	}
	return nil
}

// Baseflow separates a discharge series (any unit) into its slowflow
// component with the Lyne-Hollick single-parameter recursive filter,
// applied in the given number of passes (forward, backward, forward, ...)
// as is standard. The result is clamped to [0, Q].
func Baseflow(q *timeseries.Series, alpha float64, passes int) (*timeseries.Series, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("alpha=%v: %w", alpha, ErrBadParams)
	}
	if passes < 1 {
		return nil, fmt.Errorf("passes=%d: %w", passes, ErrBadParams)
	}
	if q.Len() == 0 {
		return nil, fmt.Errorf("empty series: %w", ErrBadParams)
	}
	// The passes run inside the series returned: each sample's quickflow
	// is subtracted as soon as it is known, so prev carries the previous
	// sample's slowflow from before its subtraction, the value the
	// filter reads.
	total := q.Raw()
	base := q.Clone()
	cur := base.Raw()
	for pass := 0; pass < passes; pass++ {
		prevQF, prev := 0.0, 0.0
		for k := 0; k < len(cur); k++ {
			i := k
			if pass%2 == 1 { // backward pass
				i = len(cur) - 1 - k
			}
			var dq float64
			if k > 0 {
				dq = cur[i] - prev
			}
			prev = cur[i]
			qf := alpha*prevQF + (1+alpha)/2*dq
			if qf < 0 {
				qf = 0
			}
			if qf > cur[i] {
				qf = cur[i]
			}
			prevQF = qf
			cur[i] -= qf
			if cur[i] < 0 {
				cur[i] = 0
			}
		}
	}
	// cur now holds the slowflow remaining after all passes.
	for i, v := range cur {
		if v > total[i] {
			cur[i] = total[i]
		}
	}
	return base, nil
}

// Loads is the water-quality export summary for one simulation.
type Loads struct {
	// SedimentTonnes is total suspended sediment export.
	SedimentTonnes float64 `json:"sedimentTonnes"`
	// PhosphorusKg is total phosphorus export.
	PhosphorusKg float64 `json:"phosphorusKg"`
	// NitrateKg is nitrate-N export.
	NitrateKg float64 `json:"nitrateKg"`
	// QuickflowFraction is stormflow volume / total volume.
	QuickflowFraction float64 `json:"quickflowFraction"`
	// SedimentConc is the per-step suspended sediment concentration
	// series (mg/l).
	SedimentConc *timeseries.Series `json:"-"`
	// Baseflow is the separated slowflow series (same unit as input).
	Baseflow *timeseries.Series `json:"-"`
}

// Export computes pollutant loads from a discharge simulation in mm per
// step over a catchment of areaKM2.
func Export(q *timeseries.Series, areaKM2 float64, p Params) (*Loads, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if areaKM2 <= 0 {
		return nil, fmt.Errorf("area %v km2: %w", areaKM2, ErrBadParams)
	}
	if q == nil || q.Len() == 0 {
		return nil, fmt.Errorf("empty discharge: %w", ErrBadParams)
	}
	base, err := Baseflow(q, p.FilterAlpha, 3)
	if err != nil {
		return nil, err
	}
	conc, err := timeseries.Zeros(q.Start(), q.Step(), q.Len())
	if err != nil {
		return nil, err
	}

	// 1 mm over 1 km2 = 1000 m3 = 1e6 litres.
	const litresPerMM = 1e6
	var sedimentMg, pMg, nMg, totalVol, quickVol float64
	for i := 0; i < q.Len(); i++ {
		flow := q.At(i)
		if flow < 0 {
			return nil, fmt.Errorf("negative flow at %d: %w", i, ErrBadParams)
		}
		slow := base.At(i)
		quick := flow - slow
		if quick < 0 {
			quick = 0
		}
		litres := flow * areaKM2 * litresPerMM
		slowL := slow * areaKM2 * litresPerMM
		quickL := quick * areaKM2 * litresPerMM

		sedConc := p.SedA * math.Pow(flow, p.SedB)
		conc.SetAt(i, sedConc)
		sedimentMg += sedConc * litres
		pMg += p.PBaseMgL*slowL + p.PStormMgL*quickL
		nMg += p.NBaseMgL*slowL + p.NStormMgL*quickL
		totalVol += flow
		quickVol += quick
	}
	loads := &Loads{
		SedimentTonnes: sedimentMg / 1e9, // mg -> tonnes
		PhosphorusKg:   pMg / 1e6,        // mg -> kg
		NitrateKg:      nMg / 1e6,
		SedimentConc:   conc,
		Baseflow:       base,
	}
	if totalVol > 0 {
		loads.QuickflowFraction = quickVol / totalVol
	}
	return loads, nil
}
