package fuse

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"evop/internal/hydro"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

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
	pet, _ := timeseries.Zeros(t0, time.Hour, hours)
	for i := 0; i < hours; i++ {
		pet.SetAt(i, 0.05)
	}
	return hydro.Forcing{Rain: rain, PET: pet}
}

func baseDecisions() Decisions {
	return Decisions{Upper: UpperSingle, Perc: PercFieldCap, Base: BaseLinear, Routing: RouteNone}
}

func TestDecisionsValidate(t *testing.T) {
	if err := baseDecisions().Validate(); err != nil {
		t.Fatalf("valid decisions rejected: %v", err)
	}
	tests := []struct {
		name string
		d    Decisions
	}{
		{"zero upper", Decisions{Perc: PercFieldCap, Base: BaseLinear, Routing: RouteNone}},
		{"bad perc", Decisions{Upper: UpperSingle, Perc: 99, Base: BaseLinear, Routing: RouteNone}},
		{"bad base", Decisions{Upper: UpperSingle, Perc: PercFieldCap, Base: 0, Routing: RouteNone}},
		{"bad routing", Decisions{Upper: UpperSingle, Perc: PercFieldCap, Base: BaseLinear, Routing: 7}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); !errors.Is(err, ErrBadDecision) {
				t.Fatalf("Validate = %v, want ErrBadDecision", err)
			}
			if _, err := New(tc.d, DefaultParams()); err == nil {
				t.Fatal("New accepted invalid decisions")
			}
		})
	}
}

func TestDecisionsString(t *testing.T) {
	d := Decisions{Upper: UpperTensionFree, Perc: PercFieldCap, Base: BasePower, Routing: RouteGammaUH}
	if got := d.String(); got != "fuse-2122" {
		t.Fatalf("String = %q, want fuse-2122", got)
	}
}

func TestAllDecisions(t *testing.T) {
	all := AllDecisions()
	if len(all) != 24 {
		t.Fatalf("AllDecisions = %d combos, want 24", len(all))
	}
	seen := make(map[string]bool, len(all))
	for _, d := range all {
		if err := d.Validate(); err != nil {
			t.Fatalf("combo %v invalid: %v", d, err)
		}
		if seen[d.String()] {
			t.Fatalf("duplicate combo %v", d)
		}
		seen[d.String()] = true
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"UZMax zero", func(p *Params) { p.UZMax = 0 }},
		{"TensionFrac 1", func(p *Params) { p.TensionFrac = 1 }},
		{"LZMax negative", func(p *Params) { p.LZMax = -5 }},
		{"B zero", func(p *Params) { p.B = 0 }},
		{"KPerc negative", func(p *Params) { p.KPerc = -1 }},
		{"FieldCapFrac 0", func(p *Params) { p.FieldCapFrac = 0 }},
		{"KBase above 1", func(p *Params) { p.KBase = 1.5 }},
		{"NBase below 1", func(p *Params) { p.NBase = 0.5 }},
		{"KFast zero", func(p *Params) { p.KFast = 0 }},
		{"RouteShape zero", func(p *Params) { p.RouteShape = 0 }},
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

func TestEveryStructureRuns(t *testing.T) {
	f := testForcing(t, 24*30, 42)
	for _, d := range AllDecisions() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			m, err := New(d, DefaultParams())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if m.Name() != d.String() {
				t.Fatalf("Name = %q", m.Name())
			}
			q, err := m.Run(f)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			st := q.Summarise()
			if st.Min < 0 {
				t.Fatalf("negative flow %v", st.Min)
			}
			if math.IsNaN(st.Sum) || math.IsInf(st.Sum, 0) {
				t.Fatalf("non-finite flow sum %v", st.Sum)
			}
			if st.Sum <= 0 {
				t.Fatal("no flow simulated")
			}
			// No structure may create water: runoff ratio <= 1 plus
			// tolerance for initial storage drainage.
			if ratio := st.Sum / f.Rain.Summarise().Sum; ratio > 1.5 {
				t.Fatalf("runoff ratio %v: structure creates water", ratio)
			}
		})
	}
}

func TestStructuresDiffer(t *testing.T) {
	// Different baseflow decisions must produce different hydrographs.
	f := testForcing(t, 24*30, 9)
	dLin := baseDecisions()
	dPow := baseDecisions()
	dPow.Base = BasePower
	mLin, _ := New(dLin, DefaultParams())
	mPow, _ := New(dPow, DefaultParams())
	qLin, err := mLin.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	qPow, err := mPow.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	diff := 0.0
	for i := 0; i < qLin.Len(); i++ {
		diff += math.Abs(qLin.At(i) - qPow.At(i))
	}
	if diff < 1e-6 {
		t.Fatal("linear and power baseflow structures are indistinguishable")
	}
}

func TestRoutingDelaysPeak(t *testing.T) {
	n := 24 * 5
	rain, _ := timeseries.Zeros(t0, time.Hour, n)
	pet, _ := timeseries.Zeros(t0, time.Hour, n)
	storm := weather.DesignStorm{TotalDepthMM: 80, Duration: 3 * time.Hour, PeakFraction: 0.5}
	rainS, err := storm.Inject(rain, t0.Add(48*time.Hour))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	f := hydro.Forcing{Rain: rainS, PET: pet}

	dNo := baseDecisions()
	dUH := baseDecisions()
	dUH.Routing = RouteGammaUH
	mNo, _ := New(dNo, DefaultParams())
	mUH, _ := New(dUH, DefaultParams())
	qNo, _ := mNo.Run(f)
	qUH, _ := mUH.Run(f)
	if qUH.Summarise().Max >= qNo.Summarise().Max {
		t.Fatalf("routed peak %v not attenuated vs %v", qUH.Summarise().Max, qNo.Summarise().Max)
	}
	if qUH.Summarise().ArgMax < qNo.Summarise().ArgMax {
		t.Fatalf("routed peak earlier (%d) than unrouted (%d)",
			qUH.Summarise().ArgMax, qNo.Summarise().ArgMax)
	}
}

func TestRunEnsemble(t *testing.T) {
	f := testForcing(t, 24*10, 3)
	decs := AllDecisions()[:6]
	res, err := RunEnsembleOn(context.Background(), nil, decs, DefaultParams(), f)
	if err != nil {
		t.Fatalf("RunEnsembleOn: %v", err)
	}
	if len(res.Members) != 6 {
		t.Fatalf("members = %d", len(res.Members))
	}
	if res.Mean.Len() != f.Len() {
		t.Fatalf("mean len = %d", res.Mean.Len())
	}
	// The mean must lie within the member envelope at every step.
	for i := 0; i < res.Mean.Len(); i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range res.Members {
			v := q.At(i)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if m := res.Mean.At(i); m < lo-1e-9 || m > hi+1e-9 {
			t.Fatalf("mean[%d]=%v outside envelope [%v,%v]", i, m, lo, hi)
		}
	}
	if _, err := RunEnsembleOn(context.Background(), nil, nil, DefaultParams(), f); err == nil {
		t.Fatal("empty ensemble: want error")
	}
}

func TestRunRejectsBadForcing(t *testing.T) {
	m, _ := New(baseDecisions(), DefaultParams())
	rain, _ := timeseries.Zeros(t0, time.Hour, 5)
	pet, _ := timeseries.Zeros(t0.Add(time.Hour), time.Hour, 5)
	if _, err := m.Run(hydro.Forcing{Rain: rain, PET: pet}); !errors.Is(err, hydro.ErrBadForcing) {
		t.Fatalf("bad forcing err = %v", err)
	}
}

func TestDecisionsAccessors(t *testing.T) {
	d := baseDecisions()
	m, _ := New(d, DefaultParams())
	if m.Decisions() != d {
		t.Fatal("Decisions not preserved")
	}
	if m.Params().UZMax != DefaultParams().UZMax {
		t.Fatal("Params not preserved")
	}
}

func TestNoStructureCreatesWaterProperty(t *testing.T) {
	// Property: across random valid parameter sets and all structures,
	// flow is non-negative and total outflow never exceeds rainfall plus
	// the finite initial storage.
	f := testForcing(t, 24*20, 23)
	rainTotal := f.Rain.Summarise().Sum
	decs := AllDecisions()
	check := func(uzRaw, lzRaw, bRaw, kRaw uint16, decIdx uint8) bool {
		p := DefaultParams()
		p.UZMax = 10 + float64(uzRaw%2000)/10
		p.LZMax = 50 + float64(lzRaw%5000)/10
		p.B = 0.1 + float64(bRaw%50)/10
		p.KBase = 0.001 + float64(kRaw%999)/10000
		d := decs[int(decIdx)%len(decs)]
		m, err := New(d, p)
		if err != nil {
			return false
		}
		q, err := m.Run(f)
		if err != nil {
			return false
		}
		st := q.Summarise()
		if st.Min < 0 {
			return false
		}
		// Initial storage: 30% of both zones.
		initial := 0.3*p.UZMax + 0.3*p.LZMax
		return st.Sum <= rainTotal+initial+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
