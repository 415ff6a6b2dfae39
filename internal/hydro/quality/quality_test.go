package quality

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"evop/internal/timeseries"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.MustNew(t0, time.Hour, vals)
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"SedA zero", func(p *Params) { p.SedA = 0 }},
		{"SedA NaN", func(p *Params) { p.SedA = math.NaN() }},
		{"SedB zero", func(p *Params) { p.SedB = 0 }},
		{"negative P", func(p *Params) { p.PStormMgL = -1 }},
		{"negative N", func(p *Params) { p.NBaseMgL = -1 }},
		{"alpha 1", func(p *Params) { p.FilterAlpha = 1 }},
		{"alpha 0", func(p *Params) { p.FilterAlpha = 0 }},
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

func TestBaseflowBounds(t *testing.T) {
	// A flashy hydrograph: recession + storm spike + recession.
	q := series(1, 0.9, 0.8, 0.7, 5, 4, 2, 1, 0.8, 0.7, 0.6, 0.5)
	base, err := Baseflow(q, 0.95, 3)
	if err != nil {
		t.Fatalf("Baseflow: %v", err)
	}
	for i := 0; i < q.Len(); i++ {
		if base.At(i) < 0 || base.At(i) > q.At(i)+1e-12 {
			t.Fatalf("baseflow[%d] = %v outside [0, %v]", i, base.At(i), q.At(i))
		}
	}
	// Baseflow must absorb less of the storm spike than of the recession.
	spikeFrac := base.At(4) / q.At(4)
	recFrac := base.At(1) / q.At(1)
	if spikeFrac >= recFrac {
		t.Fatalf("storm baseflow fraction %.2f >= recession fraction %.2f", spikeFrac, recFrac)
	}
}

func TestBaseflowErrors(t *testing.T) {
	q := series(1, 2)
	if _, err := Baseflow(q, 1.5, 3); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad alpha err = %v", err)
	}
	if _, err := Baseflow(q, 0.95, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad passes err = %v", err)
	}
	empty := timeseries.MustNew(t0, time.Hour, nil)
	if _, err := Baseflow(empty, 0.95, 3); !errors.Is(err, ErrBadParams) {
		t.Fatalf("empty err = %v", err)
	}
}

// TestBaseflowAllocs pins Baseflow to the series it returns, its header
// and its values, whatever the length and the number of passes: the
// filter runs inside that series.
func TestBaseflowAllocs(t *testing.T) {
	for _, n := range []int{10, 10000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1 + math.Sin(float64(i)/7)
		}
		q := series(vals...)
		for _, passes := range []int{1, 3} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Baseflow(q, 0.95, passes); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 2 {
				t.Fatalf("n=%d passes=%d: Baseflow allocs = %v, want 2 (the returned series)", n, passes, allocs)
			}
		}
	}
}

func TestBaseflowConstantFlowIsAllBase(t *testing.T) {
	q := series(2, 2, 2, 2, 2, 2, 2, 2)
	base, err := Baseflow(q, 0.95, 3)
	if err != nil {
		t.Fatalf("Baseflow: %v", err)
	}
	// No variation => no quickflow.
	for i := 0; i < q.Len(); i++ {
		if math.Abs(base.At(i)-2) > 1e-9 {
			t.Fatalf("constant flow separated: base[%d]=%v", i, base.At(i))
		}
	}
}

func TestExportLoads(t *testing.T) {
	q := series(0.1, 0.1, 2, 1, 0.3, 0.1)
	loads, err := Export(q, 10, DefaultParams())
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if loads.SedimentTonnes <= 0 || loads.PhosphorusKg <= 0 || loads.NitrateKg <= 0 {
		t.Fatalf("loads = %+v", loads)
	}
	if loads.QuickflowFraction <= 0 || loads.QuickflowFraction >= 1 {
		t.Fatalf("quickflow fraction = %v", loads.QuickflowFraction)
	}
	if loads.SedimentConc.Len() != q.Len() || loads.Baseflow.Len() != q.Len() {
		t.Fatal("series outputs wrong length")
	}
	// Sediment concentration tracks flow (rating curve is monotone).
	if loads.SedimentConc.At(2) <= loads.SedimentConc.At(0) {
		t.Fatal("rating curve not monotone with flow")
	}
}

func TestExportScalesWithArea(t *testing.T) {
	q := series(0.5, 1, 0.5)
	small, err := Export(q, 5, DefaultParams())
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	big, err := Export(q, 10, DefaultParams())
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if math.Abs(big.PhosphorusKg/small.PhosphorusKg-2) > 1e-9 {
		t.Fatalf("P load does not scale with area: %v vs %v", big.PhosphorusKg, small.PhosphorusKg)
	}
}

func TestExportErrors(t *testing.T) {
	q := series(1, 2)
	bad := DefaultParams()
	bad.SedA = 0
	if _, err := Export(q, 10, bad); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad params err = %v", err)
	}
	if _, err := Export(q, 0, DefaultParams()); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero area err = %v", err)
	}
	if _, err := Export(nil, 10, DefaultParams()); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil series err = %v", err)
	}
	neg := series(1, -1)
	if _, err := Export(neg, 10, DefaultParams()); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative flow err = %v", err)
	}
}

func TestMoreSedimentWithHigherCoefficient(t *testing.T) {
	q := series(0.2, 1.5, 0.8, 0.3)
	base := DefaultParams()
	dirty := base
	dirty.SedA *= 1.8
	l1, err := Export(q, 10, base)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	l2, err := Export(q, 10, dirty)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if l2.SedimentTonnes <= l1.SedimentTonnes {
		t.Fatalf("higher SedA did not raise load: %v vs %v", l2.SedimentTonnes, l1.SedimentTonnes)
	}
}

func TestBaseflowNeverExceedsTotalProperty(t *testing.T) {
	// Property: for any non-negative hydrograph, 0 <= baseflow <= total.
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 25
		}
		q := timeseries.MustNew(t0, time.Hour, vals)
		base, err := Baseflow(q, 0.93, 3)
		if err != nil {
			return false
		}
		for i := 0; i < q.Len(); i++ {
			if base.At(i) < 0 || base.At(i) > q.At(i)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
