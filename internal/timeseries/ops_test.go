package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestResampleCoarsen(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 3, 2, 4, 10, 20})
	tests := []struct {
		name string
		agg  AggFunc
		want []float64
	}{
		{"mean", AggMean, []float64{2, 3, 15}},
		{"sum", AggSum, []float64{4, 6, 30}},
		{"max", AggMax, []float64{3, 4, 20}},
		{"min", AggMin, []float64{1, 2, 10}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := s.Resample(2*time.Hour, tc.agg)
			if err != nil {
				t.Fatalf("Resample: %v", err)
			}
			if got.Step() != 2*time.Hour || got.Len() != 3 {
				t.Fatalf("step=%v len=%d", got.Step(), got.Len())
			}
			for i, w := range tc.want {
				if got.At(i) != w {
					t.Fatalf("%s[%d] = %v, want %v", tc.agg, i, got.At(i), w)
				}
			}
		})
	}
}

func TestResampleCoarsenSkipsNaN(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, math.NaN(), math.NaN(), math.NaN()})
	got, err := s.Resample(2*time.Hour, AggMean)
	if err != nil {
		t.Fatalf("Resample: %v", err)
	}
	if got.At(0) != 1 {
		t.Fatalf("bucket with one NaN = %v, want 1", got.At(0))
	}
	if !math.IsNaN(got.At(1)) {
		t.Fatalf("all-NaN bucket = %v, want NaN", got.At(1))
	}
}

func TestResampleRefine(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{4, 8})
	sum, err := s.Resample(30*time.Minute, AggSum)
	if err != nil {
		t.Fatalf("Resample sum: %v", err)
	}
	// Mass preserved: each hour's depth split across two half-hours.
	for i, w := range []float64{2, 2, 4, 4} {
		if sum.At(i) != w {
			t.Fatalf("sum[%d] = %v, want %v", i, sum.At(i), w)
		}
	}
	mean, err := s.Resample(30*time.Minute, AggMean)
	if err != nil {
		t.Fatalf("Resample mean: %v", err)
	}
	for i, w := range []float64{4, 4, 8, 8} {
		if mean.At(i) != w {
			t.Fatalf("mean[%d] = %v, want %v", i, mean.At(i), w)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 2})
	if _, err := s.Resample(0, AggMean); !errors.Is(err, ErrBadStep) {
		t.Fatalf("step=0 err = %v", err)
	}
	if _, err := s.Resample(90*time.Minute, AggMean); !errors.Is(err, ErrStepMismatch) {
		t.Fatalf("non-multiple coarsen err = %v", err)
	}
	if _, err := s.Resample(25*time.Minute, AggMean); !errors.Is(err, ErrStepMismatch) {
		t.Fatalf("non-divisor refine err = %v", err)
	}
	same, err := s.Resample(time.Hour, AggMean)
	if err != nil || same.Len() != 2 {
		t.Fatalf("identity resample: %v len=%d", err, same.Len())
	}
}

func TestResampleSumPreservesMass(t *testing.T) {
	// Property: resampling a depth series with AggSum preserves total depth
	// in both directions.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw)/2*2)
		for i := range vals {
			vals[i] = float64(raw[i]) / 10
		}
		if len(vals) == 0 {
			return true
		}
		s := MustNew(t0, time.Hour, vals)
		total := s.Summarise().Sum
		coarse, err := s.Resample(2*time.Hour, AggSum)
		if err != nil {
			return false
		}
		fine, err := s.Resample(30*time.Minute, AggSum)
		if err != nil {
			return false
		}
		return math.Abs(coarse.Summarise().Sum-total) < 1e-6 &&
			math.Abs(fine.Summarise().Sum-total) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlign(t *testing.T) {
	rain := MustNew(t0, 15*time.Minute, seq(1, 16))                       // 4 hours of 15-min depths
	level := MustNew(t0.Add(time.Hour), time.Hour, []float64{5, 6, 7, 8}) // hourly states
	got, err := Align(time.Hour, []*Series{rain, level}, []AggFunc{AggSum, AggMean})
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	for _, g := range got {
		if g.Step() != time.Hour {
			t.Fatalf("aligned step = %v", g.Step())
		}
		if !g.Start().Equal(t0.Add(time.Hour)) {
			t.Fatalf("aligned start = %v", g.Start())
		}
		if g.Len() != 3 {
			t.Fatalf("aligned len = %d, want 3", g.Len())
		}
	}
	// rain hour 1 = sum of samples 5..8 = 26
	if got[0].At(0) != 26 {
		t.Fatalf("aligned rain[0] = %v, want 26", got[0].At(0))
	}
	if got[1].At(0) != 5 {
		t.Fatalf("aligned level[0] = %v, want 5", got[1].At(0))
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := Align(time.Hour, nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty Align err = %v", err)
	}
	a := MustNew(t0, time.Hour, []float64{1})
	if _, err := Align(time.Hour, []*Series{a}, nil); err == nil {
		t.Fatal("mismatched aggs: want error")
	}
	b := MustNew(t0.Add(100*time.Hour), time.Hour, []float64{1})
	if _, err := Align(time.Hour, []*Series{a, b}, []AggFunc{AggMean, AggMean}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("disjoint Align err = %v", err)
	}
}

func TestAggFuncString(t *testing.T) {
	for agg, want := range map[AggFunc]string{AggMean: "mean", AggSum: "sum", AggMax: "max", AggMin: "min", AggFunc(99): "AggFunc(99)"} {
		if got := agg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
