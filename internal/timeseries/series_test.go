package timeseries

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func TestNewValidation(t *testing.T) {
	if _, err := New(t0, 0, nil); !errors.Is(err, ErrBadStep) {
		t.Fatalf("New(step=0) err = %v, want ErrBadStep", err)
	}
	if _, err := New(t0, -time.Hour, nil); !errors.Is(err, ErrBadStep) {
		t.Fatalf("New(step<0) err = %v, want ErrBadStep", err)
	}
	s, err := New(t0, time.Hour, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Len() != 3 || s.Step() != time.Hour || !s.Start().Equal(t0) {
		t.Fatalf("unexpected series: len=%d step=%v start=%v", s.Len(), s.Step(), s.Start())
	}
}

func TestNewCopiesInput(t *testing.T) {
	vals := []float64{1, 2}
	s := MustNew(t0, time.Hour, vals)
	vals[0] = 99
	if s.At(0) != 1 {
		t.Fatal("New did not copy the input slice")
	}
	got := s.Values()
	got[1] = 99
	if s.At(1) != 2 {
		t.Fatal("Values did not return a copy")
	}
}

func TestEndAndTimeAt(t *testing.T) {
	s := MustNew(t0, 15*time.Minute, []float64{0, 0, 0, 0})
	if want := t0.Add(time.Hour); !s.End().Equal(want) {
		t.Fatalf("End() = %v, want %v", s.End(), want)
	}
	if want := t0.Add(30 * time.Minute); !s.TimeAt(2).Equal(want) {
		t.Fatalf("TimeAt(2) = %v, want %v", s.TimeAt(2), want)
	}
}

func TestIndexOfAndValueAt(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{10, 20, 30})
	tests := []struct {
		name string
		t    time.Time
		want int
	}{
		{"start", t0, 0},
		{"mid-bucket", t0.Add(90 * time.Minute), 1},
		{"last", t0.Add(2 * time.Hour), 2},
		{"before", t0.Add(-time.Minute), -1},
		{"at end", t0.Add(3 * time.Hour), -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := s.IndexOf(tc.t); got != tc.want {
				t.Fatalf("IndexOf(%v) = %d, want %d", tc.t, got, tc.want)
			}
			v, ok := s.ValueAt(tc.t)
			if tc.want < 0 {
				if ok {
					t.Fatalf("ValueAt(%v) ok=true, want false", tc.t)
				}
				return
			}
			if !ok || v != s.At(tc.want) {
				t.Fatalf("ValueAt(%v) = %v,%v want %v,true", tc.t, v, ok, s.At(tc.want))
			}
		})
	}
}

func TestSlice(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{0, 1, 2, 3, 4, 5})
	tests := []struct {
		name      string
		from, to  time.Time
		wantVals  []float64
		wantStart time.Time
	}{
		{"interior", t0.Add(time.Hour), t0.Add(3 * time.Hour), []float64{1, 2}, t0.Add(time.Hour)},
		{"clamped", t0.Add(-time.Hour), t0.Add(100 * time.Hour), []float64{0, 1, 2, 3, 4, 5}, t0},
		{"partial bucket rounds up", t0, t0.Add(90 * time.Minute), []float64{0, 1}, t0},
		{"disjoint after", t0.Add(10 * time.Hour), t0.Add(11 * time.Hour), nil, t0.Add(10 * time.Hour)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := s.Slice(tc.from, tc.to)
			if err != nil {
				t.Fatalf("Slice: %v", err)
			}
			if got.Len() != len(tc.wantVals) {
				t.Fatalf("len = %d, want %d", got.Len(), len(tc.wantVals))
			}
			for i, w := range tc.wantVals {
				if got.At(i) != w {
					t.Fatalf("At(%d) = %v, want %v", i, got.At(i), w)
				}
			}
		})
	}
	if _, err := s.Slice(t0.Add(time.Hour), t0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted Slice err = %v, want ErrBadRange", err)
	}
}

func TestMapScaleClone(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, 2})
	doubled := s.Scale(2)
	if doubled.At(1) != 4 {
		t.Fatalf("Scale(2)[1] = %v, want 4", doubled.At(1))
	}
	if s.At(1) != 2 {
		t.Fatal("Scale mutated the receiver")
	}
	c := s.Clone()
	c.SetAt(0, 99)
	if s.At(0) != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestSummarise(t *testing.T) {
	s := MustNew(t0, time.Hour, []float64{1, math.NaN(), 5, 3})
	st := s.Summarise()
	if st.N != 3 || st.Sum != 9 || st.Mean != 3 || st.Min != 1 || st.Max != 5 || st.ArgMax != 2 {
		t.Fatalf("Summarise = %+v", st)
	}
	empty := MustNew(t0, time.Hour, []float64{math.NaN()})
	est := empty.Summarise()
	if est.N != 0 || est.ArgMax != -1 || !math.IsNaN(est.Mean) {
		t.Fatalf("empty Summarise = %+v", est)
	}
}

func TestQuantile(t *testing.T) {
	tests := []struct {
		name string
		vals []float64
		q    float64
		want float64
	}{
		{"median odd", []float64{3, 1, 2}, 0.5, 2},
		{"median even interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"min", []float64{5, 1}, 0, 1},
		{"max", []float64{5, 1}, 1, 5},
		{"clamped above", []float64{5, 1}, 2, 5},
		{"clamped below", []float64{5, 1}, -1, 1},
		{"p95 of 0..100", seq(0, 100), 0.95, 95},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Quantile(tc.vals, tc.q)
			if err != nil {
				t.Fatalf("Quantile: %v", err)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

func seq(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}
