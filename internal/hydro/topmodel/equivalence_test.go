package topmodel

// The fast-path kernel (precomputed per-bin deficit offsets, raw-slice
// writes, reusable scratch) must be bit-identical to the original
// straight-line implementation. runReference below is that original,
// SetAt-based kernel, kept verbatim as the oracle for a property-style
// equivalence sweep over randomized parameters and forcings.

import (
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

func sameSeries(t *testing.T, name string, want, got *timeseries.Series) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: len %d vs %d", name, want.Len(), got.Len())
	}
	if !want.Start().Equal(got.Start()) || want.Step() != got.Step() {
		t.Fatalf("%s: time base differs", name)
	}
	for i := 0; i < want.Len(); i++ {
		if want.At(i) != got.At(i) {
			t.Fatalf("%s[%d]: %v vs %v (must be bit-identical)", name, i, want.At(i), got.At(i))
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
		for _, got := range []*Output{fresh, reused} {
			sameSeries(t, "discharge", want.Discharge, got.Discharge)
			sameSeries(t, "baseflow", want.Baseflow, got.Baseflow)
			sameSeries(t, "overland", want.Overland, got.Overland)
			sameSeries(t, "satFraction", want.SatFraction, got.SatFraction)
			sameSeries(t, "actualET", want.ActualET, got.ActualET)
			if want.Balance != got.Balance {
				t.Fatalf("trial %d: balance %+v vs %+v", trial, want.Balance, got.Balance)
			}
		}
		if closure := fresh.Balance.Closure(); closure > 1e-6 {
			t.Fatalf("trial %d: mass balance closure %v", trial, closure)
		}
	}
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
