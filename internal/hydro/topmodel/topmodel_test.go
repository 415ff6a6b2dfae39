package topmodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func testTI(t *testing.T) *catchment.TIDistribution {
	t.Helper()
	c, ok := catchment.LEFTCatchments().Get("morland")
	if !ok {
		t.Fatal("morland catchment missing")
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatalf("TopoIndexDistribution: %v", err)
	}
	return ti
}

func testForcing(t *testing.T, hours int, seed int64) hydro.Forcing {
	t.Helper()
	gen, err := weather.NewGenerator(weather.UKUplandClimate(), seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rain, err := gen.Rainfall(t0, time.Hour, hours)
	if err != nil {
		t.Fatalf("Rainfall: %v", err)
	}
	// Constant modest PET keeps the test focused on the runoff dynamics.
	pet, err := timeseries.Zeros(t0, time.Hour, hours)
	if err != nil {
		t.Fatalf("Zeros: %v", err)
	}
	for i := 0; i < hours; i++ {
		pet.SetAt(i, 0.05)
	}
	return hydro.Forcing{Rain: rain, PET: pet}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	for _, lnTe := range []float64{750, -700} { // finite extremes stay legal
		p := DefaultParams()
		p.LnTe = lnTe
		if err := p.Validate(); err != nil {
			t.Fatalf("LnTe=%v invalid: %v", lnTe, err)
		}
	}
	atCap := DefaultParams()
	atCap.RouteBaseSteps = maxRouteBaseSteps
	if err := atCap.Validate(); err != nil {
		t.Fatalf("routing base at the cap invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"M zero", func(p *Params) { p.M = 0 }},
		{"M NaN", func(p *Params) { p.M = math.NaN() }},
		{"M +Inf", func(p *Params) { p.M = math.Inf(1) }},
		{"LnTe NaN", func(p *Params) { p.LnTe = math.NaN() }},
		{"LnTe +Inf", func(p *Params) { p.LnTe = math.Inf(1) }},
		{"LnTe -Inf", func(p *Params) { p.LnTe = math.Inf(-1) }},
		{"SRMax zero", func(p *Params) { p.SRMax = 0 }},
		{"SRMax NaN", func(p *Params) { p.SRMax = math.NaN() }},
		{"SRMax +Inf", func(p *Params) { p.SRMax = math.Inf(1) }},
		{"SR0 negative", func(p *Params) { p.SR0 = -1 }},
		{"SR0 above SRMax", func(p *Params) { p.SR0 = p.SRMax + 1 }},
		{"SR0 NaN", func(p *Params) { p.SR0 = math.NaN() }},
		{"TD zero", func(p *Params) { p.TD = 0 }},
		{"TD NaN", func(p *Params) { p.TD = math.NaN() }},
		{"TD +Inf", func(p *Params) { p.TD = math.Inf(1) }},
		{"Q0 zero", func(p *Params) { p.Q0 = 0 }},
		{"Q0 NaN", func(p *Params) { p.Q0 = math.NaN() }},
		{"Q0 +Inf", func(p *Params) { p.Q0 = math.Inf(1) }},
		{"LnTe and Q0 +Inf", func(p *Params) { p.LnTe, p.Q0 = 750, math.Inf(1) }},
		{"routing degenerate", func(p *Params) { p.RouteBaseSteps = p.RoutePeakSteps }},
		{"routing base above cap", func(p *Params) { p.RouteBaseSteps = maxRouteBaseSteps + 1 }},
		{"routing base 4e9", func(p *Params) { p.RouteBaseSteps = 4_000_000_000 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			if err := p.Validate(); !errors.Is(err, ErrBadParams) {
				t.Fatalf("Validate = %v, want ErrBadParams", err)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	ti := testTI(t)
	if _, err := New(DefaultParams(), nil); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil TI err = %v", err)
	}
	bad := &catchment.TIDistribution{Values: []float64{1}, Fractions: []float64{2}}
	if _, err := New(DefaultParams(), bad); err == nil {
		t.Fatal("invalid TI accepted")
	}
	m, err := New(DefaultParams(), ti)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Name() != "topmodel" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.params.M != DefaultParams().M {
		t.Fatal("Params not preserved")
	}
}

func TestRunProducesFlow(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	f := testForcing(t, 24*60, 42)
	q, err := m.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if q.Len() != f.Len() {
		t.Fatalf("output len = %d, want %d", q.Len(), f.Len())
	}
	st := q.Summarise()
	if st.Min < 0 {
		t.Fatalf("negative discharge %v", st.Min)
	}
	if st.Sum <= 0 {
		t.Fatal("no flow simulated")
	}
	// Runoff ratio must be physical: 0 < Q/P <= 1 plus a tolerance for
	// initial storage release.
	ratio := st.Sum / f.Rain.Summarise().Sum
	if ratio <= 0 || ratio > 1.3 {
		t.Fatalf("runoff ratio = %.2f, want (0, 1.3]", ratio)
	}
}

func TestRunDeterministic(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	f := testForcing(t, 500, 7)
	a, err := m.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, _ := m.Run(f)
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("re-run diverged at %d", i)
		}
	}
}

func TestMassBalanceCloses(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	f := testForcing(t, 24*90, 13)
	out, err := m.RunDetailed(f)
	if err != nil {
		t.Fatalf("RunDetailed: %v", err)
	}
	if c := out.Balance.Closure(); c > 0.01 {
		t.Fatalf("mass balance error %.4f (%.2f mm of %.0f mm rain)",
			c, out.Balance.ClosureMM, out.Balance.RainIn)
	}
}

func TestStormRespondsWithPeak(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	n := 24 * 10
	rain, _ := timeseries.Zeros(t0, time.Hour, n)
	pet, _ := timeseries.Zeros(t0, time.Hour, n)
	storm := weather.DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
	stormAt := t0.Add(72 * time.Hour)
	rainWith, err := storm.Inject(rain, stormAt)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	q, err := m.Run(hydro.Forcing{Rain: rainWith, PET: pet})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := q.Summarise()
	peakTime := q.TimeAt(st.ArgMax)
	if peakTime.Before(stormAt) {
		t.Fatalf("peak at %v before storm at %v", peakTime, stormAt)
	}
	if lag := peakTime.Sub(stormAt); lag > 36*time.Hour {
		t.Fatalf("peak lag %v too long", lag)
	}
	// Flow before the storm must be a declining recession (skip the first
	// UH base length, where the routing convolution is still warming up).
	pre, _ := q.Slice(t0.Add(24*time.Hour), stormAt)
	for i := 1; i < pre.Len(); i++ {
		if pre.At(i) > pre.At(i-1)+1e-12 {
			t.Fatalf("recession not monotone at %d: %v > %v", i, pre.At(i), pre.At(i-1))
		}
	}
	if st.Max <= pre.At(pre.Len()-1)*2 {
		t.Fatalf("storm peak %v not well above pre-storm flow %v", st.Max, pre.At(pre.Len()-1))
	}
}

func TestSmallerMIsFlashier(t *testing.T) {
	// M controls the transmissivity decay: a smaller M produces a flashier
	// catchment with higher storm peaks.
	ti := testTI(t)
	f := testForcing(t, 24*30, 21)
	flashy := DefaultParams()
	flashy.M = 8
	damped := DefaultParams()
	damped.M = 80

	mf, _ := New(flashy, ti)
	md, _ := New(damped, ti)
	qf, err := mf.Run(f)
	if err != nil {
		t.Fatalf("Run flashy: %v", err)
	}
	qd, err := md.Run(f)
	if err != nil {
		t.Fatalf("Run damped: %v", err)
	}
	if qf.Summarise().Max <= qd.Summarise().Max {
		t.Fatalf("flashy peak %v <= damped peak %v", qf.Summarise().Max, qd.Summarise().Max)
	}
}

func TestSaturationFractionBounded(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	f := testForcing(t, 24*30, 33)
	out, err := m.RunDetailed(f)
	if err != nil {
		t.Fatalf("RunDetailed: %v", err)
	}
	for i := 0; i < out.SatFraction.Len(); i++ {
		v := out.SatFraction.At(i)
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("saturated fraction[%d] = %v", i, v)
		}
	}
}

func TestRunRejectsBadForcing(t *testing.T) {
	m, _ := New(DefaultParams(), testTI(t))
	rain, _ := timeseries.Zeros(t0, time.Hour, 5)
	pet, _ := timeseries.Zeros(t0, time.Minute, 5)
	if _, err := m.Run(hydro.Forcing{Rain: rain, PET: pet}); !errors.Is(err, hydro.ErrBadForcing) {
		t.Fatalf("bad forcing err = %v", err)
	}
}

func TestWetterCatchmentYieldsMoreRunoff(t *testing.T) {
	// Doubling rainfall should increase total flow.
	m, _ := New(DefaultParams(), testTI(t))
	f := testForcing(t, 24*60, 5)
	q1, err := m.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	f2 := hydro.Forcing{Rain: f.Rain.Scale(2), PET: f.PET}
	q2, err := m.Run(f2)
	if err != nil {
		t.Fatalf("Run x2: %v", err)
	}
	if q2.Summarise().Sum <= q1.Summarise().Sum {
		t.Fatalf("2x rain gave %v <= 1x rain %v", q2.Summarise().Sum, q1.Summarise().Sum)
	}
}

func TestMassBalanceClosesForRandomParamsProperty(t *testing.T) {
	// Property: for any valid parameter set, the simulation conserves
	// water (closure error < 2% of rainfall) and never produces negative
	// flow.
	ti := testTI(t)
	f := testForcing(t, 24*30, 17)
	check := func(mRaw, lnTeRaw, srMaxRaw, tdRaw uint16) bool {
		p := DefaultParams()
		p.M = 2 + float64(mRaw%1200)/10         // 2..122 mm
		p.LnTe = 1 + float64(lnTeRaw%70)/10     // 1..8
		p.SRMax = 5 + float64(srMaxRaw%2000)/10 // 5..205 mm
		p.SR0 = p.SRMax * float64(tdRaw%100) / 100
		p.TD = 0.2 + float64(tdRaw%300)/10 // 0.2..30
		m, err := New(p, ti)
		if err != nil {
			return false
		}
		out, err := m.RunDetailed(f)
		if err != nil {
			return false
		}
		if out.Balance.Closure() > 0.02 {
			return false
		}
		for i := 0; i < out.Discharge.Len(); i++ {
			if out.Discharge.At(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
