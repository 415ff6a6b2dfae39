package topmodel

// The fast-path kernel (precomputed per-bin deficit offsets, raw-slice
// writes, reusable scratch) must be bit-identical to the original
// straight-line implementation. runReference below is that original,
// SetAt-based kernel, kept verbatim as the oracle for a property-style
// equivalence sweep over randomized parameters and forcings.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/timeseries"
)

// runReference is the pre-fast-path RunDetailed, preserved exactly.
func runReference(m *Model, f hydro.Forcing) (*Output, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	p := m.params
	lambda := m.ti.Mean
	nBins := len(m.ti.Values)
	n := f.Len()

	szq := math.Exp(p.LnTe - lambda)
	sbar := -p.M * math.Log(p.Q0/szq)
	if sbar < 0 {
		sbar = 0
	}
	srz := p.SR0
	suz := make([]float64, nBins)

	zeros := func() *timeseries.Series {
		s, _ := timeseries.Zeros(f.Rain.Start(), f.Rain.Step(), n)
		return s
	}
	qTotal := zeros()
	qBase := zeros()
	qOver := zeros()
	satFrac := zeros()
	aet := zeros()

	storage := func() float64 {
		s := -sbar - srz
		for i, u := range suz {
			s += u * m.ti.Fractions[i]
		}
		return s
	}
	s0 := storage()

	var rainIn, etOut, flowOut float64
	for t := 0; t < n; t++ {
		rain := f.Rain.At(t)
		pet := f.PET.At(t)
		rainIn += rain

		fill := rain
		if fill > srz {
			fill = srz
		}
		srz -= fill
		excess := rain - fill

		ea := pet * (1 - srz/p.SRMax)
		if ea < 0 {
			ea = 0
		}
		if srz+ea > p.SRMax {
			ea = p.SRMax - srz
		}
		srz += ea
		etOut += ea
		aet.SetAt(t, ea)

		qb := szq * math.Exp(-sbar/p.M)

		var qof, qv, sat float64
		for i := 0; i < nBins; i++ {
			frac := m.ti.Fractions[i]
			if frac == 0 {
				continue
			}
			si := sbar + p.M*(lambda-m.ti.Values[i])
			if si < 0 {
				si = 0
			}
			suz[i] += excess
			if si <= 0 {
				qof += frac * suz[i]
				sat += frac
				suz[i] = 0
				continue
			}
			if suz[i] > si {
				qof += frac * (suz[i] - si)
				suz[i] = si
			}
			quz := suz[i] / (si * p.TD)
			if quz > suz[i] {
				quz = suz[i]
			}
			suz[i] -= quz
			qv += frac * quz
		}

		sbar += qb - qv
		if sbar < 0 {
			qof += -sbar
			sbar = 0
		}

		qBase.SetAt(t, qb)
		qOver.SetAt(t, qof)
		satFrac.SetAt(t, sat)
		qTotal.SetAt(t, qb+qof)
		flowOut += qb + qof
	}

	balance := hydro.MassBalance{
		RainIn:   rainIn,
		ETOut:    etOut,
		FlowOut:  flowOut,
		StorageD: storage() - s0,
	}
	balance.ClosureMM = balance.RainIn - balance.ETOut - balance.FlowOut - balance.StorageD

	return &Output{
		Discharge:   m.uh.Route(qTotal),
		Baseflow:    qBase,
		Overland:    qOver,
		SatFraction: satFrac,
		ActualET:    aet,
		Balance:     balance,
	}, nil
}

func randomParams(rng *rand.Rand) Params {
	srMax := 10 + rng.Float64()*90
	peak := 1 + rng.Intn(5)
	return Params{
		M:              2 + rng.Float64()*78,
		LnTe:           1 + rng.Float64()*9,
		SRMax:          srMax,
		SR0:            rng.Float64() * srMax,
		TD:             0.2 + rng.Float64()*9,
		Q0:             0.001 + rng.Float64()*0.4,
		RoutePeakSteps: peak,
		RouteBaseSteps: peak + 1 + rng.Intn(20),
	}
}

func randomForcing(t *testing.T, rng *rand.Rand, n int) hydro.Forcing {
	t.Helper()
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	rainV := make([]float64, n)
	petV := make([]float64, n)
	for i := range rainV {
		if rng.Float64() < 0.4 { // intermittent storms
			rainV[i] = rng.ExpFloat64() * 1.5
		}
		petV[i] = rng.Float64() * 0.15
	}
	rain, err := timeseries.New(start, time.Hour, rainV)
	if err != nil {
		t.Fatal(err)
	}
	pet, err := timeseries.New(start, time.Hour, petV)
	if err != nil {
		t.Fatal(err)
	}
	return hydro.Forcing{Rain: rain, PET: pet}
}

// sameFloat compares by bit pattern, so a -0 does not match a +0, except
// that any NaN matches any NaN: Go leaves a NaN's sign and payload to
// the operand order the compiler picks for a commutative operation.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameSeries requires the two series to match bit for bit, by sameFloat.
func sameSeries(t *testing.T, name string, want, got *timeseries.Series) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: len %d vs %d", name, want.Len(), got.Len())
	}
	if !want.Start().Equal(got.Start()) || want.Step() != got.Step() {
		t.Fatalf("%s: time base differs", name)
	}
	for i := 0; i < want.Len(); i++ {
		if !sameFloat(want.At(i), got.At(i)) {
			t.Fatalf("%s[%d]: %v vs %v (must be bit-identical)", name, i, want.At(i), got.At(i))
		}
	}
}

func sameOutput(t *testing.T, name string, want, got *Output) {
	t.Helper()
	sameSeries(t, name+" discharge", want.Discharge, got.Discharge)
	sameSeries(t, name+" baseflow", want.Baseflow, got.Baseflow)
	sameSeries(t, name+" overland", want.Overland, got.Overland)
	sameSeries(t, name+" satFraction", want.SatFraction, got.SatFraction)
	sameSeries(t, name+" actualET", want.ActualET, got.ActualET)
	w, g := want.Balance, got.Balance
	for _, pair := range [][2]float64{
		{w.RainIn, g.RainIn}, {w.ETOut, g.ETOut}, {w.FlowOut, g.FlowOut},
		{w.StorageD, g.StorageD}, {w.ClosureMM, g.ClosureMM},
	} {
		if !sameFloat(pair[0], pair[1]) {
			t.Fatalf("%s: balance %+v vs %+v", name, w, g)
		}
	}
}

// TestFastPathMatchesReferenceProperty drives the reference and fast
// kernels over randomized params and forcings: every output series must
// be bit-identical, whether the fast path runs fresh (RunDetailed) or
// through a reused scratch (runDetailed), and mass balance must
// close.
func TestFastPathMatchesReferenceProperty(t *testing.T) {
	c, ok := catchment.LEFTCatchments().Get("morland")
	if !ok {
		t.Fatal("morland missing")
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20190601))
	var sc scratch // deliberately reused across every trial
	for trial := 0; trial < 40; trial++ {
		p := randomParams(rng)
		f := randomForcing(t, rng, 200+rng.Intn(500))
		m, err := New(p, ti)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		want, err := runReference(m, f)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		fresh, err := m.RunDetailed(f)
		if err != nil {
			t.Fatalf("trial %d: RunDetailed: %v", trial, err)
		}
		reused, err := m.runDetailed(f, &sc)
		if err != nil {
			t.Fatalf("trial %d: runDetailed: %v", trial, err)
		}
		sameOutput(t, fmt.Sprintf("trial %d fresh", trial), want, fresh)
		sameOutput(t, fmt.Sprintf("trial %d reused", trial), want, reused)
		if closure := fresh.Balance.Closure(); closure > 1e-6 {
			t.Fatalf("trial %d: mass balance closure %v", trial, closure)
		}
	}
}

// sliderParams draws the ranges the portal's model-explore sliders
// cover: M, LnTe, SRMax and TD move, the rest stay at their defaults.
func sliderParams(rng *rand.Rand) Params {
	p := DefaultParams()
	p.M = 10 + 40*rng.Float64()
	p.LnTe = 4 + 3*rng.Float64()
	p.SRMax = 20 + 40*rng.Float64()
	p.TD = 0.5 + 4*rng.Float64()
	return p
}

// stormDryForcing alternates storms with long dry spells that carry
// only drizzle the root zone can absorb, so the saturated area grows
// through a storm and while its recharge drains, and shrinks through
// the dry spell: the cut moves both ways, on wet and dry steps.
func stormDryForcing(t *testing.T, rng *rand.Rand, n int) hydro.Forcing {
	t.Helper()
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	rainV := make([]float64, n)
	petV := make([]float64, n)
	for i := 0; i < n; {
		depth := 1 + 14*rng.Float64()
		for end := min(n, i+6+rng.Intn(30)); i < end; i++ {
			rainV[i] = depth * rng.Float64()
		}
		for end := min(n, i+48+rng.Intn(350)); i < end; i++ {
			if rng.Float64() < 0.05 {
				rainV[i] = 0.5 * rng.Float64()
			}
		}
	}
	for i := range petV {
		petV[i] = 0.3 * math.Max(0, math.Sin(2*math.Pi*float64(i%24)/24))
	}
	rain, err := timeseries.New(start, time.Hour, rainV)
	if err != nil {
		t.Fatal(err)
	}
	pet, err := timeseries.New(start, time.Hour, petV)
	if err != nil {
		t.Fatal(err)
	}
	return hydro.Forcing{Rain: rain, PET: pet}
}

// syntheticTI builds a distribution whose mean is its fraction-weighted
// value, as TIDistribution builds one.
func syntheticTI(t *testing.T, values, fractions []float64) *catchment.TIDistribution {
	t.Helper()
	ti := &catchment.TIDistribution{Values: values, Fractions: fractions}
	for i, v := range values {
		ti.Mean += v * fractions[i]
	}
	if err := ti.Validate(); err != nil {
		t.Fatal(err)
	}
	return ti
}

// uncheckedModel builds the Model New would, without Params.Validate,
// so the sweep can hold the kernel to the reference on parameters New
// refuses, +Inf among them.
func uncheckedModel(t *testing.T, p Params, ti *catchment.TIDistribution) *Model {
	t.Helper()
	uh, err := hydro.TriangularUH(p.RoutePeakSteps, p.RouteBaseSteps)
	if err != nil {
		t.Fatalf("TriangularUH: %v", err)
	}
	return &Model{params: p, ti: ti, uh: uh}
}

// TestFastPathMatchesReferenceSweep widens the property sweep to the
// kernel's edge cases, bit for bit: every LEFT catchment's TI, and
// synthetic ones with zero-fraction classes first, in the middle and
// last, with tied values, and with a single class; storm and dry-spell
// forcings beside the random ones; and parameters that make the mean
// deficit huge, +Inf, NaN or zero, or the class offsets infinite.
func TestFastPathMatchesReferenceSweep(t *testing.T) {
	type namedTI struct {
		name string
		ti   *catchment.TIDistribution
	}
	var tis []namedTI
	for _, c := range catchment.LEFTCatchments().All() {
		ti, err := c.TopoIndexDistribution()
		if err != nil {
			t.Fatal(err)
		}
		tis = append(tis, namedTI{c.ID, ti})
	}
	values := []float64{3, 4, 5, 6, 7, 8, 9, 10}
	tis = append(tis,
		namedTI{"zero first", syntheticTI(t, values, []float64{0, 0, 0.1, 0.2, 0.3, 0.2, 0.15, 0.05})},
		namedTI{"zero middle", syntheticTI(t, values, []float64{0.1, 0.2, 0, 0.3, 0, 0.2, 0.15, 0.05})},
		namedTI{"zero last", syntheticTI(t, values, []float64{0.1, 0.2, 0.3, 0.2, 0.15, 0.05, 0, 0})},
		namedTI{"tied values", syntheticTI(t, []float64{4, 6, 6, 6, 9, 12, 12}, []float64{0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.1})},
		namedTI{"zeros and ties", syntheticTI(t, []float64{5, 5, 7, 7, 11, 11}, []float64{0, 0.3, 0.2, 0, 0.5, 0})},
		namedTI{"single class", syntheticTI(t, []float64{8}, []float64{1})},
	)
	extremes := []func(*Params){
		func(p *Params) { p.LnTe = 700 },                    // a mean deficit far above every class
		func(p *Params) { p.LnTe = 750 },                    // szq overflows: sbar is +Inf, then NaN
		func(p *Params) { p.LnTe, p.Q0 = 750, math.Inf(1) }, // sbar is NaN from the start
		func(p *Params) { p.LnTe = -700 },                   // szq underflows: sbar starts at zero
		func(p *Params) { p.M, p.SR0 = 1e-3, 0 },            // a knife-edge saturation front
		func(p *Params) { p.M = math.Inf(1) },               // infinite and NaN offsets
	}
	rng := rand.New(rand.NewSource(20261019))
	var sc scratch // reused across distributions with different class counts
	for _, tc := range tis {
		var params []Params
		for _, mutate := range extremes {
			p := DefaultParams()
			mutate(&p)
			params = append(params, p)
		}
		for i := 0; i < 4; i++ {
			params = append(params, randomParams(rng), sliderParams(rng))
		}
		for trial, p := range params {
			m := uncheckedModel(t, p, tc.ti)
			for _, f := range []hydro.Forcing{
				stormDryForcing(t, rng, 1200+rng.Intn(400)),
				randomForcing(t, rng, 200+rng.Intn(300)),
			} {
				name := fmt.Sprintf("%s trial %d (%+v, %d steps)", tc.name, trial, p, f.Len())
				want, err := runReference(m, f)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				fresh, err := m.RunDetailed(f)
				if err != nil {
					t.Fatalf("%s: RunDetailed: %v", name, err)
				}
				sameOutput(t, name+" fresh", want, fresh)
				reused, err := m.runDetailed(f, &sc)
				if err != nil {
					t.Fatalf("%s: runDetailed: %v", name, err)
				}
				sameOutput(t, name+" reused", want, reused)
				pooled, err := m.Run(f)
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				sameSeries(t, name+" Run discharge", want.Discharge, pooled)
			}
		}
	}
}

// TestDrySaturationMatchesReference pins the one dry step whose
// saturated classes still hold storage. A class keeps storage after
// draining only when its local deficit is above 1/TD, while the mean
// deficit falls by at most the summed fraction over TD in a step, so a
// class that is newly saturated on a dry step is normally empty. Here
// the fractions sum to 1+9e-7, inside Validate's tolerance: a storm
// fills both classes, the wet class keeps 2e-6 mm above its draining
// and is saturated on the dry step that follows, which must flush it.
func TestDrySaturationMatchesReference(t *testing.T) {
	const td, m = 0.2, 5.0
	ti := syntheticTI(t, []float64{6, 8}, []float64{0.5, 0.5000009})
	q0 := 1e-7
	p := Params{
		M: m,
		// The wet class starts with local deficit m*(LnTe-8-ln Q0), 2e-6
		// above 1/TD.
		LnTe:  8 + math.Log(q0) + (1/td+2e-6)/m,
		SRMax: 40, SR0: 0, TD: td, Q0: q0,
		RoutePeakSteps: 1, RouteBaseSteps: 2,
	}
	model, err := New(p, ti)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	rain, err := timeseries.New(start, time.Hour, []float64{30, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	pet, err := timeseries.Zeros(start, time.Hour, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := hydro.Forcing{Rain: rain, PET: pet}
	want, err := runReference(model, f)
	if err != nil {
		t.Fatal(err)
	}
	if sat0, sat1, over := want.SatFraction.At(0), want.SatFraction.At(1), want.Overland.At(1); sat0 != 0 || sat1 == 0 || over == 0 {
		t.Fatalf("saturated fraction %v then %v, dry-step overland %v; want a class newly saturated on the dry step, flushing storage",
			sat0, sat1, over)
	}
	got, err := model.RunDetailed(f)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "dry saturation", want, got)
}

// TestScratchSteadyStateAllocFree pins the tentpole claim: repeated runs
// through one scratch allocate nothing.
func TestScratchSteadyStateAllocFree(t *testing.T) {
	c, _ := catchment.LEFTCatchments().Get("morland")
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultParams(), ti)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	f := randomForcing(t, rng, 720)
	var sc scratch
	if _, err := m.runDetailed(f, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.runDetailed(f, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}
