// Package weather generates synthetic meteorological forcing for the EVOp
// catchments. The paper's exemplars ran on observed rainfall and
// temperature records (e.g. the Eden catchment); those records are not
// redistributable, so this package substitutes a stochastic weather
// generator with the same statistical structure:
//
//   - rainfall occurrence follows a two-state (wet/dry) first-order Markov
//     chain, giving realistic wet-spell clustering;
//   - wet-step depths are Gamma distributed (right-skewed, as observed);
//   - both occurrence and intensity are modulated by a seasonal cycle
//     (UK-like winter-wet climatology);
//   - temperature is a seasonal + diurnal sinusoid with autocorrelated
//     noise.
//
// Generators are deterministic given a seed, so every experiment is
// reproducible. Storm injection lets the flooding exemplar place a
// design storm at a known time, which the scenario benchmarks use.
package weather

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"evop/internal/timeseries"
)

// Common errors.
var (
	// ErrBadConfig indicates an invalid generator configuration.
	ErrBadConfig = errors.New("weather: invalid configuration")
)

// Climate holds the parameters of the stochastic weather generator.
// The defaults (see UKUplandClimate) are tuned to resemble a wet UK
// upland catchment such as the Eden at Morland.
type Climate struct {
	// PWetGivenDry is the probability a dry step is followed by a wet one
	// (annual mean; seasonally modulated).
	PWetGivenDry float64
	// PWetGivenWet is the probability a wet step is followed by a wet one.
	PWetGivenWet float64
	// MeanWetDepthMM is the mean rainfall depth of a wet step in mm.
	MeanWetDepthMM float64
	// GammaShape is the shape parameter of the wet-step depth distribution
	// (lower = more skewed).
	GammaShape float64
	// SeasonalAmplitude in [0,1) scales how much wetter winter is than
	// summer (0 = no seasonality).
	SeasonalAmplitude float64
	// MeanTempC is the annual mean air temperature.
	MeanTempC float64
	// TempSeasonalRangeC is the peak-to-peak seasonal temperature range.
	TempSeasonalRangeC float64
	// TempDiurnalRangeC is the peak-to-peak diurnal temperature range.
	TempDiurnalRangeC float64
}

// UKUplandClimate returns a Climate resembling a wet UK upland catchment
// (annual rainfall on the order of 1200 mm at an hourly step).
func UKUplandClimate() Climate {
	return Climate{
		PWetGivenDry:       0.10,
		PWetGivenWet:       0.55,
		MeanWetDepthMM:     0.9,
		GammaShape:         0.7,
		SeasonalAmplitude:  0.35,
		MeanTempC:          8.5,
		TempSeasonalRangeC: 12,
		TempDiurnalRangeC:  5,
	}
}

// Validate checks the climate parameters.
func (c Climate) Validate() error {
	switch {
	case c.PWetGivenDry < 0 || c.PWetGivenDry > 1:
		return fmt.Errorf("PWetGivenDry=%v: %w", c.PWetGivenDry, ErrBadConfig)
	case c.PWetGivenWet < 0 || c.PWetGivenWet > 1:
		return fmt.Errorf("PWetGivenWet=%v: %w", c.PWetGivenWet, ErrBadConfig)
	case c.MeanWetDepthMM <= 0:
		return fmt.Errorf("MeanWetDepthMM=%v: %w", c.MeanWetDepthMM, ErrBadConfig)
	case c.GammaShape <= 0:
		return fmt.Errorf("GammaShape=%v: %w", c.GammaShape, ErrBadConfig)
	case c.SeasonalAmplitude < 0 || c.SeasonalAmplitude >= 1:
		return fmt.Errorf("SeasonalAmplitude=%v: %w", c.SeasonalAmplitude, ErrBadConfig)
	}
	return nil
}

// Generator produces synthetic forcing series for one catchment.
type Generator struct {
	climate Climate
	rng     *rand.Rand
	wet     bool
}

// NewGenerator returns a Generator with the given climate and seed.
func NewGenerator(climate Climate, seed int64) (*Generator, error) {
	if err := climate.Validate(); err != nil {
		return nil, err
	}
	return &Generator{climate: climate, rng: rand.New(rand.NewSource(seed))}, nil
}

// seasonFactor returns the seasonal multiplier for time t: >1 in winter,
// <1 in summer (northern hemisphere).
func (g *Generator) seasonFactor(t time.Time) float64 {
	yday := float64(t.YearDay())
	// Peak wetness in early January (yday ~ 5).
	phase := 2 * math.Pi * (yday - 5) / 365
	return 1 + g.climate.SeasonalAmplitude*math.Cos(phase)
}

// gamma draws a Gamma(shape, scale) variate using Marsaglia-Tsang (with
// the standard boost for shape < 1).
func (g *Generator) gamma(shape, scale float64) float64 {
	if shape < 1 {
		u := g.rng.Float64()
		return g.gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Rainfall generates n steps of rainfall depth (mm per step) starting at
// start.
func (g *Generator) Rainfall(start time.Time, step time.Duration, n int) (*timeseries.Series, error) {
	if n < 0 {
		return nil, fmt.Errorf("weather: negative length %d: %w", n, ErrBadConfig)
	}
	vals := make([]float64, n)
	for i := range vals {
		t := start.Add(time.Duration(i) * step)
		sf := g.seasonFactor(t)
		pWet := g.climate.PWetGivenDry * sf
		if g.wet {
			pWet = g.climate.PWetGivenWet * sf
		}
		if pWet > 0.98 {
			pWet = 0.98
		}
		g.wet = g.rng.Float64() < pWet
		if g.wet {
			scale := g.climate.MeanWetDepthMM * sf / g.climate.GammaShape
			vals[i] = g.gamma(g.climate.GammaShape, scale)
		}
	}
	return timeseries.New(start, step, vals)
}

// Temperature generates n steps of air temperature (deg C) starting at
// start, with seasonal and diurnal cycles plus AR(1) noise.
func (g *Generator) Temperature(start time.Time, step time.Duration, n int) (*timeseries.Series, error) {
	if n < 0 {
		return nil, fmt.Errorf("weather: negative length %d: %w", n, ErrBadConfig)
	}
	vals := make([]float64, n)
	noise := 0.0
	for i := range vals {
		t := start.Add(time.Duration(i) * step)
		yday := float64(t.YearDay())
		// Warmest around mid-July (yday ~ 197).
		seasonal := g.climate.TempSeasonalRangeC / 2 * math.Cos(2*math.Pi*(yday-197)/365)
		hour := float64(t.Hour()) + float64(t.Minute())/60
		// Warmest around 15:00.
		diurnal := g.climate.TempDiurnalRangeC / 2 * math.Cos(2*math.Pi*(hour-15)/24)
		noise = 0.9*noise + 0.5*g.rng.NormFloat64()
		vals[i] = g.climate.MeanTempC + seasonal + diurnal + noise
	}
	return timeseries.New(start, step, vals)
}

// DesignStorm describes a synthetic storm event for flooding scenarios: a
// triangular hyetograph of the given total depth and duration, peaking at
// PeakFraction of the way through.
type DesignStorm struct {
	// TotalDepthMM is the storm's total rainfall depth.
	TotalDepthMM float64
	// Duration is the storm length.
	Duration time.Duration
	// PeakFraction in (0,1) places the intensity peak; 0.4 gives a
	// typical front-loaded UK convective profile.
	PeakFraction float64
}

// Validate checks the storm parameters.
func (d DesignStorm) Validate() error {
	// The negated comparisons also reject NaN, which compares false.
	switch {
	case !(d.TotalDepthMM > 0) || math.IsInf(d.TotalDepthMM, 1):
		return fmt.Errorf("TotalDepthMM=%v: %w", d.TotalDepthMM, ErrBadConfig)
	case d.Duration <= 0:
		return fmt.Errorf("Duration=%v: %w", d.Duration, ErrBadConfig)
	case !(d.PeakFraction > 0 && d.PeakFraction < 1):
		return fmt.Errorf("PeakFraction=%v: %w", d.PeakFraction, ErrBadConfig)
	}
	return nil
}

// Inject adds the design storm to the rainfall series at the given start
// time, returning a new series. Mass outside the series extent is dropped.
func (d DesignStorm) Inject(rain *timeseries.Series, at time.Time) (*timeseries.Series, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	out := rain.Clone()
	step := rain.Step()
	nSteps := int(d.Duration / step)
	if nSteps < 1 {
		nSteps = 1
	}
	peak := d.PeakFraction * float64(nSteps)
	// Triangular weights normalised to TotalDepthMM.
	weights := make([]float64, nSteps)
	var sum float64
	for i := range weights {
		x := float64(i) + 0.5
		var w float64
		if x <= peak {
			w = x / peak
		} else {
			w = (float64(nSteps) - x) / (float64(nSteps) - peak)
		}
		if w < 0 {
			w = 0
		}
		weights[i] = w
		sum += w
	}
	for i, w := range weights {
		t := at.Add(time.Duration(i) * step)
		idx := out.IndexOf(t)
		if idx < 0 {
			continue
		}
		out.SetAt(idx, out.At(idx)+d.TotalDepthMM*w/sum)
	}
	return out, nil
}
