package hydro

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"evop/internal/timeseries"
)

var t0 = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func mkForcing(t *testing.T, n int) Forcing {
	t.Helper()
	rain, err := timeseries.Zeros(t0, time.Hour, n)
	if err != nil {
		t.Fatalf("Zeros: %v", err)
	}
	pet, err := timeseries.Zeros(t0, time.Hour, n)
	if err != nil {
		t.Fatalf("Zeros: %v", err)
	}
	return Forcing{Rain: rain, PET: pet}
}

func TestForcingValidate(t *testing.T) {
	ok := mkForcing(t, 10)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid forcing rejected: %v", err)
	}
	if ok.Len() != 10 {
		t.Fatalf("Len=%d", ok.Len())
	}

	tests := []struct {
		name   string
		mutate func(*Forcing)
	}{
		{"nil rain", func(f *Forcing) { f.Rain = nil }},
		{"nil pet", func(f *Forcing) { f.PET = nil }},
		{"step mismatch", func(f *Forcing) {
			f.PET = timeseries.MustNew(t0, time.Minute, make([]float64, 10))
		}},
		{"start mismatch", func(f *Forcing) {
			f.PET = timeseries.MustNew(t0.Add(time.Hour), time.Hour, make([]float64, 10))
		}},
		{"length mismatch", func(f *Forcing) {
			f.PET = timeseries.MustNew(t0, time.Hour, make([]float64, 5))
		}},
		{"negative rain", func(f *Forcing) { f.Rain.SetAt(3, -1) }},
		{"NaN pet", func(f *Forcing) { f.PET.SetAt(3, math.NaN()) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := mkForcing(t, 10)
			tc.mutate(&f)
			if err := f.Validate(); !errors.Is(err, ErrBadForcing) {
				t.Fatalf("Validate = %v, want ErrBadForcing", err)
			}
		})
	}

	empty := Forcing{
		Rain: timeseries.MustNew(t0, time.Hour, nil),
		PET:  timeseries.MustNew(t0, time.Hour, nil),
	}
	if err := empty.Validate(); !errors.Is(err, ErrBadForcing) {
		t.Fatalf("empty forcing err = %v", err)
	}
}

func TestDischargeM3S(t *testing.T) {
	// 1 mm/h over 10 km2 = 10_000 m3/h = 2.7778 m3/s.
	q := timeseries.MustNew(t0, time.Hour, []float64{1})
	got, err := DischargeM3S(q, 10)
	if err != nil {
		t.Fatalf("DischargeM3S: %v", err)
	}
	if want := 10000.0 / 3600; math.Abs(got.At(0)-want) > 1e-9 {
		t.Fatalf("1mm/h over 10km2 = %v m3/s, want %v", got.At(0), want)
	}
	if _, err := DischargeM3S(q, 0); !errors.Is(err, ErrBadParam) {
		t.Fatalf("zero area err = %v", err)
	}
}

func TestTriangularUH(t *testing.T) {
	uh, err := TriangularUH(3, 12)
	if err != nil {
		t.Fatalf("TriangularUH: %v", err)
	}
	var sum float64
	for _, o := range uh.Ordinates {
		if o < 0 {
			t.Fatalf("negative ordinate %v", o)
		}
		sum += o
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ordinates sum to %v, want 1", sum)
	}
	// Peak near step 3.
	peak := 0
	for k, o := range uh.Ordinates {
		if o > uh.Ordinates[peak] {
			peak = k
		}
	}
	if peak < 1 || peak > 4 {
		t.Fatalf("peak at step %d, want near 3", peak)
	}

	if _, err := TriangularUH(0, 5); !errors.Is(err, ErrBadParam) {
		t.Fatalf("tp=0 err = %v", err)
	}
	if _, err := TriangularUH(5, 5); !errors.Is(err, ErrBadParam) {
		t.Fatalf("base==tp err = %v", err)
	}
}

func TestGammaUH(t *testing.T) {
	uh, err := GammaUH(2.5, 2, 24)
	if err != nil {
		t.Fatalf("GammaUH: %v", err)
	}
	var sum float64
	for _, o := range uh.Ordinates {
		sum += o
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ordinates sum to %v", sum)
	}
	for _, tc := range []struct {
		shape, scale float64
		n            int
	}{
		{0, 2, 24}, {2, 0, 24}, {2, 2, 0},
	} {
		if _, err := GammaUH(tc.shape, tc.scale, tc.n); !errors.Is(err, ErrBadParam) {
			t.Fatalf("GammaUH(%v,%v,%d) err = %v", tc.shape, tc.scale, tc.n, err)
		}
	}
}

func TestRouteConservesMassAndDelays(t *testing.T) {
	uh, _ := TriangularUH(2, 6)
	in, _ := timeseries.Zeros(t0, time.Hour, 50)
	in.SetAt(10, 100)
	out := uh.Route(in)
	if math.Abs(out.Summarise().Sum-100) > 1e-9 {
		t.Fatalf("routed mass = %v, want 100", out.Summarise().Sum)
	}
	// Nothing before the impulse.
	for i := 0; i < 10; i++ {
		if out.At(i) != 0 {
			t.Fatalf("output before impulse at %d: %v", i, out.At(i))
		}
	}
	// Peak delayed by ~2 steps.
	st := out.Summarise()
	if st.ArgMax < 11 || st.ArgMax > 13 {
		t.Fatalf("routed peak at %d, want 11..13", st.ArgMax)
	}
	// Peak attenuated.
	if st.Max >= 100 {
		t.Fatalf("routed peak %v not attenuated", st.Max)
	}
}

func TestRouteTruncatesTail(t *testing.T) {
	uh, _ := TriangularUH(2, 6)
	in, _ := timeseries.Zeros(t0, time.Hour, 4)
	in.SetAt(3, 10)
	out := uh.Route(in)
	if out.Summarise().Sum >= 10 {
		t.Fatalf("tail should truncate, got sum %v", out.Summarise().Sum)
	}
	if out.Len() != 4 {
		t.Fatalf("length changed: %d", out.Len())
	}
}

func TestRouteLinearityProperty(t *testing.T) {
	// Property: routing is linear — Route(a+b) == Route(a)+Route(b).
	uh, _ := TriangularUH(2, 8)
	f := func(raw []uint8) bool {
		if len(raw) < 16 {
			return true
		}
		n := 32
		a, _ := timeseries.Zeros(t0, time.Hour, n)
		b, _ := timeseries.Zeros(t0, time.Hour, n)
		ab, _ := timeseries.Zeros(t0, time.Hour, n)
		for i := 0; i < n && i < len(raw); i++ {
			a.SetAt(i, float64(raw[i]))
			b.SetAt(i, float64(raw[len(raw)-1-i]))
			ab.SetAt(i, a.At(i)+b.At(i))
		}
		lhs := uh.Route(ab)
		ra := uh.Route(a)
		rb := uh.Route(b)
		for i := 0; i < n; i++ {
			if math.Abs(lhs.At(i)-(ra.At(i)+rb.At(i))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMassBalanceClosure(t *testing.T) {
	mb := MassBalance{RainIn: 100, ETOut: 30, FlowOut: 60, StorageD: 10, ClosureMM: 0}
	if got := mb.Closure(); got != 0 {
		t.Fatalf("Closure = %v, want 0", got)
	}
	mb.ClosureMM = 5
	if got := mb.Closure(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Closure = %v, want 0.05", got)
	}
	zero := MassBalance{ClosureMM: 2}
	if got := zero.Closure(); got != 2 {
		t.Fatalf("zero-rain Closure = %v, want 2", got)
	}
}
