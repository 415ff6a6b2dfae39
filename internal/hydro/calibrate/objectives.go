// Package calibrate provides model calibration and uncertainty analysis
// for the EVOp modelling stack: goodness-of-fit objectives, Monte Carlo
// parameter sampling with a parallel worker pool (the "embarrassingly
// parallel" workload the paper uses to motivate stateless services and
// IaaS elasticity), and GLUE behavioural uncertainty bounds (the feature
// stakeholders requested in the paper's evaluation workshops).
package calibrate

import (
	"errors"
	"fmt"
	"math"

	"evop/internal/timeseries"
)

// Common errors.
var (
	// ErrMismatch indicates observed and simulated series differ in
	// shape.
	ErrMismatch = errors.New("calibrate: observed/simulated mismatch")
	// ErrDegenerate indicates an objective is undefined for the data
	// (e.g. constant observations for NSE).
	ErrDegenerate = errors.New("calibrate: degenerate objective")
	// ErrBadConfig indicates an invalid calibration configuration.
	ErrBadConfig = errors.New("calibrate: invalid configuration")
)

// Objective scores a simulation against observations; higher is better
// for all objectives in this package (error measures are negated).
type Objective func(obs, sim *timeseries.Series) (float64, error)

// paired returns the observed and simulated values at the steps where
// neither is NaN. When no step holds a NaN it returns the series' own
// slices, which the objectives only read, so scoring a sweep sample
// copies nothing.
func paired(obs, sim *timeseries.Series) ([]float64, []float64, error) {
	if obs == nil || sim == nil {
		return nil, nil, fmt.Errorf("nil series: %w", ErrMismatch)
	}
	if obs.Len() != sim.Len() || obs.Step() != sim.Step() || !obs.Start().Equal(sim.Start()) {
		return nil, nil, fmt.Errorf("obs(len=%d step=%v) vs sim(len=%d step=%v): %w",
			obs.Len(), obs.Step(), sim.Len(), sim.Step(), ErrMismatch)
	}
	ov, sv := obs.Raw(), sim.Raw()
	valid := 0
	for i := range ov {
		if !math.IsNaN(ov[i]) && !math.IsNaN(sv[i]) {
			valid++
		}
	}
	switch valid {
	case 0:
		return nil, nil, fmt.Errorf("no overlapping valid samples: %w", ErrMismatch)
	case len(ov):
		return ov, sv, nil
	}
	o := make([]float64, 0, valid)
	s := make([]float64, 0, valid)
	for i := range ov {
		if math.IsNaN(ov[i]) || math.IsNaN(sv[i]) {
			continue
		}
		o = append(o, ov[i])
		s = append(s, sv[i])
	}
	return o, s, nil
}

// NSE returns the Nash-Sutcliffe efficiency: 1 is perfect, 0 means the
// model is no better than the observed mean, negative is worse.
func NSE(obs, sim *timeseries.Series) (float64, error) {
	o, s, err := paired(obs, sim)
	if err != nil {
		return 0, err
	}
	var mean float64
	for _, v := range o {
		mean += v
	}
	mean /= float64(len(o))
	var num, den float64
	for i := range o {
		num += (o[i] - s[i]) * (o[i] - s[i])
		den += (o[i] - mean) * (o[i] - mean)
	}
	if den == 0 {
		return 0, fmt.Errorf("constant observations: %w", ErrDegenerate)
	}
	return 1 - num/den, nil
}

// LogNSE is NSE computed on log-transformed flows (with a small offset),
// emphasising low-flow fit.
func LogNSE(obs, sim *timeseries.Series) (float64, error) {
	const eps = 1e-6
	tr := func(s *timeseries.Series) *timeseries.Series {
		return s.Map(func(v float64) float64 {
			if v < 0 {
				v = 0
			}
			return math.Log(v + eps)
		})
	}
	return NSE(tr(obs), tr(sim))
}

// KGE returns the Kling-Gupta efficiency (2009 formulation): 1 is
// perfect.
func KGE(obs, sim *timeseries.Series) (float64, error) {
	o, s, err := paired(obs, sim)
	if err != nil {
		return 0, err
	}
	n := float64(len(o))
	var mo, ms float64
	for i := range o {
		mo += o[i]
		ms += s[i]
	}
	mo /= n
	ms /= n
	var so, ss, cov float64
	for i := range o {
		so += (o[i] - mo) * (o[i] - mo)
		ss += (s[i] - ms) * (s[i] - ms)
		cov += (o[i] - mo) * (s[i] - ms)
	}
	so = math.Sqrt(so / n)
	ss = math.Sqrt(ss / n)
	if so == 0 || mo == 0 {
		return 0, fmt.Errorf("constant or zero-mean observations: %w", ErrDegenerate)
	}
	if ss == 0 {
		// Constant simulation: correlation undefined, treat as r=0.
		return 1 - math.Sqrt(1+math.Pow(ss/so-1, 2)+math.Pow(ms/mo-1, 2)), nil
	}
	r := cov / (n * so * ss)
	alpha := ss / so
	beta := ms / mo
	return 1 - math.Sqrt(math.Pow(r-1, 2)+math.Pow(alpha-1, 2)+math.Pow(beta-1, 2)), nil
}

// NegRMSE returns the negated root-mean-square error so that higher is
// better, consistent with the other objectives.
func NegRMSE(obs, sim *timeseries.Series) (float64, error) {
	o, s, err := paired(obs, sim)
	if err != nil {
		return 0, err
	}
	var ss float64
	for i := range o {
		d := o[i] - s[i]
		ss += d * d
	}
	return -math.Sqrt(ss / float64(len(o))), nil
}

// PBias returns the percent bias (0 is unbiased; positive means the model
// under-predicts total volume).
func PBias(obs, sim *timeseries.Series) (float64, error) {
	o, s, err := paired(obs, sim)
	if err != nil {
		return 0, err
	}
	var sumO, sumD float64
	for i := range o {
		sumO += o[i]
		sumD += o[i] - s[i]
	}
	if sumO == 0 {
		return 0, fmt.Errorf("zero observed volume: %w", ErrDegenerate)
	}
	return 100 * sumD / sumO, nil
}
