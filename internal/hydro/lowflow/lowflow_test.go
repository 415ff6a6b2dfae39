package lowflow

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/hydro/topmodel"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.MustNew(t0, time.Hour, vals)
}

func TestFDCExceedance(t *testing.T) {
	// Flows 1..100: Q95 should be near 5.95 (5% from the bottom), Q50 near
	// the median.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	fdc, err := NewFDC(timeseries.MustNew(t0, time.Hour, vals))
	if err != nil {
		t.Fatalf("NewFDC: %v", err)
	}
	q95, err := fdc.Exceedance(95)
	if err != nil {
		t.Fatalf("Exceedance: %v", err)
	}
	if q95 < 5 || q95 > 7 {
		t.Fatalf("Q95 = %v, want ~6", q95)
	}
	q50, _ := fdc.Exceedance(50)
	if q50 < 49 || q50 > 52 {
		t.Fatalf("Q50 = %v, want ~50.5", q50)
	}
	q0, _ := fdc.Exceedance(0)
	if q0 != 100 {
		t.Fatalf("Q0 = %v, want max", q0)
	}
	q100, _ := fdc.Exceedance(100)
	if q100 != 1 {
		t.Fatalf("Q100 = %v, want min", q100)
	}
	// Monotone non-increasing in p.
	prev := math.Inf(1)
	for p := 0.0; p <= 100; p += 5 {
		v, err := fdc.Exceedance(p)
		if err != nil {
			t.Fatalf("Exceedance(%v): %v", p, err)
		}
		if v > prev+1e-12 {
			t.Fatalf("FDC not monotone at %v%%: %v > %v", p, v, prev)
		}
		prev = v
	}
}

// TestFDCSortMatchesReference checks NewFDC's sort against the
// sort.Sort(sort.Reverse(sort.Float64Slice)) it replaced, bit for bit:
// random lengths up to a 120-day quarter-hourly record, with ties, ±0,
// +Inf and NaNs of distinct payloads, whose order among equals only the
// same permutation keeps.
func TestFDCSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pool := []float64{0, math.Copysign(0, -1), 1, 2.5, math.Inf(1)}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		if trial%100 == 0 {
			n = 2880
		}
		vals := make([]float64, n)
		for i := range vals {
			switch r := rng.Intn(10); {
			case r < 2:
				vals[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(1<<20)))
			case r < 5:
				vals[i] = pool[rng.Intn(len(pool))]
			default:
				vals[i] = float64(rng.Intn(50)) / 4
			}
		}
		want := slices.Clone(vals)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		fdc, err := NewFDC(timeseries.MustNew(t0, time.Hour, vals))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, v := range fdc.sorted {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d): [%d] = %x, reference %x", trial, n, i,
					math.Float64bits(v), math.Float64bits(want[i]))
			}
		}
	}
}

func TestFDCErrors(t *testing.T) {
	if _, err := NewFDC(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
	if _, err := NewFDC(series(-1, 2)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative err = %v", err)
	}
	fdc, _ := NewFDC(series(1, 2, 3))
	if _, err := fdc.Exceedance(101); !errors.Is(err, ErrBadInput) {
		t.Fatalf("p=101 err = %v", err)
	}
}

func TestDroughtsExtraction(t *testing.T) {
	// Threshold 1.0: two spells — steps 2..4 (3 steps) and step 7 (1 step).
	q := series(2, 2, 0.5, 0.4, 0.7, 2, 2, 0.9, 2, 2)
	droughts, err := Droughts(q, 1.0, 1)
	if err != nil {
		t.Fatalf("Droughts: %v", err)
	}
	if len(droughts) != 2 {
		t.Fatalf("droughts = %d, want 2: %+v", len(droughts), droughts)
	}
	first := droughts[0]
	if !first.Start.Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("first start = %v", first.Start)
	}
	if first.Duration != 3*time.Hour {
		t.Fatalf("first duration = %v", first.Duration)
	}
	wantDef := (1 - 0.5) + (1 - 0.4) + (1 - 0.7)
	if math.Abs(first.DeficitMM-wantDef) > 1e-12 {
		t.Fatalf("first deficit = %v, want %v", first.DeficitMM, wantDef)
	}

	// minSteps pooling drops the 1-step dip.
	pooled, _ := Droughts(q, 1.0, 2)
	if len(pooled) != 1 {
		t.Fatalf("pooled droughts = %d, want 1", len(pooled))
	}
}

func TestDroughtsSpellAtEnd(t *testing.T) {
	q := series(2, 2, 0.1, 0.1)
	droughts, err := Droughts(q, 1.0, 1)
	if err != nil {
		t.Fatalf("Droughts: %v", err)
	}
	if len(droughts) != 1 || droughts[0].Duration != 2*time.Hour {
		t.Fatalf("tail spell = %+v", droughts)
	}
}

func TestDroughtsErrors(t *testing.T) {
	if _, err := Droughts(nil, 1, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
	if _, err := Droughts(series(1), -1, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative threshold err = %v", err)
	}
}

func TestAnalyseOnSimulatedDischarge(t *testing.T) {
	c, _ := catchment.LEFTCatchments().Get("morland")
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatalf("TI: %v", err)
	}
	gen, _ := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed)
	rain, _ := gen.Rainfall(t0, time.Hour, 24*90)
	pet, _ := timeseries.Zeros(t0, time.Hour, rain.Len())
	for i := 0; i < pet.Len(); i++ {
		pet.SetAt(i, 0.08)
	}
	m, err := topmodel.New(topmodel.DefaultParams(), ti)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q, err := m.Run(hydro.Forcing{Rain: rain, PET: pet})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := Analyse(q)
	if err != nil {
		t.Fatalf("Analyse: %v", err)
	}
	if s.Q95 <= 0 || s.Q70 <= s.Q95 {
		t.Fatalf("quantiles: Q95=%v Q70=%v", s.Q95, s.Q70)
	}
	if s.BFI <= 0 || s.BFI > 1 {
		t.Fatalf("BFI = %v", s.BFI)
	}
	// By construction Q90 is undercut ~10% of the time, so some drought
	// spells exist over 90 days.
	if len(s.Droughts) == 0 {
		t.Fatal("no droughts found below Q90 in 90 days")
	}
	if s.LongestDrought < 24*time.Hour {
		t.Fatalf("longest drought %v < pooling floor", s.LongestDrought)
	}
	if s.TotalDeficitMM <= 0 {
		t.Fatalf("total deficit = %v", s.TotalDeficitMM)
	}
}

func TestAnalyseEmpty(t *testing.T) {
	if _, err := Analyse(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
}
