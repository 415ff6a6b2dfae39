package calibrate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evop/internal/timeseries"
)

// pairedCopy is the oracle for paired: it copies the NaN-free pairs of
// both series, whatever they hold.
func pairedCopy(obs, sim *timeseries.Series) ([]float64, []float64, error) {
	if obs == nil || sim == nil {
		return nil, nil, fmt.Errorf("nil series: %w", ErrMismatch)
	}
	if obs.Len() != sim.Len() || obs.Step() != sim.Step() || !obs.Start().Equal(sim.Start()) {
		return nil, nil, fmt.Errorf("obs(len=%d step=%v) vs sim(len=%d step=%v): %w",
			obs.Len(), obs.Step(), sim.Len(), sim.Step(), ErrMismatch)
	}
	n := obs.Len()
	o := make([]float64, 0, n)
	s := make([]float64, 0, n)
	ov, sv := obs.Raw(), sim.Raw()
	for i := 0; i < n; i++ {
		if math.IsNaN(ov[i]) || math.IsNaN(sv[i]) {
			continue
		}
		o = append(o, ov[i])
		s = append(s, sv[i])
	}
	if len(o) == 0 {
		return nil, nil, fmt.Errorf("no overlapping valid samples: %w", ErrMismatch)
	}
	return o, s, nil
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPairedMatchesCopyProperty holds paired and every objective built
// on it to the copying oracle over seeded random series, with and
// without NaN gaps: the same pairs, the same error text, and
// bit-identical scores. A NaN-free pair of series is scored without
// allocating.
func TestPairedMatchesCopyProperty(t *testing.T) {
	objectives := []struct {
		name string
		fn   Objective
	}{{"NSE", NSE}, {"KGE", KGE}, {"NegRMSE", NegRMSE}}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		nanRate := []float64{0, 0, 0.05, 0.5, 1}[trial%5]
		ov := make([]float64, n)
		sv := make([]float64, n)
		for i := range ov {
			ov[i] = rng.ExpFloat64()
			sv[i] = ov[i] * (0.5 + rng.Float64())
			if rng.Float64() < nanRate {
				ov[i] = math.NaN()
			}
			if rng.Float64() < nanRate {
				sv[i] = math.NaN()
			}
		}
		obs, sim := series(ov...), series(sv...)

		wo, ws, werr := pairedCopy(obs, sim)
		o, s, err := paired(obs, sim)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !sameBits(o, wo) || !sameBits(s, ws) {
			t.Fatalf("trial %d: paired = %v, %v, %v; oracle %v, %v, %v", trial, o, s, err, wo, ws, werr)
		}
		if werr != nil {
			continue
		}
		// The oracle's pairs as NaN-free series: scoring them must match
		// scoring the originals, gaps and all.
		oracleObs, oracleSim := series(wo...), series(ws...)
		for _, obj := range objectives {
			want, werr := obj.fn(oracleObs, oracleSim)
			got, err := obj.fn(obs, sim)
			if fmt.Sprint(err) != fmt.Sprint(werr) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: %s = %v, %v; oracle %v, %v", trial, obj.name, got, err, want, werr)
			}
			if nanRate == 0 && werr == nil {
				if allocs := testing.AllocsPerRun(5, func() { _, _ = obj.fn(obs, sim) }); allocs != 0 {
					t.Fatalf("trial %d: %s allocates %v objects on NaN-free series, want 0", trial, obj.name, allocs)
				}
			}
		}
	}
}
