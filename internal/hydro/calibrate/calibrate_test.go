package calibrate

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/hydro/topmodel"
	"evop/internal/sched"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) *timeseries.Series {
	return timeseries.MustNew(t0, time.Hour, vals)
}

func TestNSE(t *testing.T) {
	obs := series(1, 2, 3, 4, 5)
	if got, err := NSE(obs, obs.Clone()); err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("NSE(perfect) = %v, %v", got, err)
	}
	// Simulating the observed mean gives NSE = 0.
	mean := series(3, 3, 3, 3, 3)
	if got, err := NSE(obs, mean); err != nil || math.Abs(got) > 1e-12 {
		t.Fatalf("NSE(mean) = %v, %v", got, err)
	}
	// Worse than the mean gives negative.
	bad := series(10, -4, 12, -9, 20)
	if got, _ := NSE(obs, bad); got >= 0 {
		t.Fatalf("NSE(bad) = %v, want negative", got)
	}
}

func TestNSEErrors(t *testing.T) {
	obs := series(1, 2, 3)
	if _, err := NSE(obs, series(1, 2)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("length mismatch err = %v", err)
	}
	if _, err := NSE(nil, obs); !errors.Is(err, ErrMismatch) {
		t.Fatalf("nil err = %v", err)
	}
	flat := series(2, 2, 2)
	if _, err := NSE(flat, flat); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("constant obs err = %v", err)
	}
	nan := series(math.NaN(), math.NaN())
	if _, err := NSE(nan, series(1, 2)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("all-NaN err = %v", err)
	}
}

func TestNSESkipsNaN(t *testing.T) {
	obs := series(1, math.NaN(), 3, 5)
	sim := series(1, 99, 3, 5)
	got, err := NSE(obs, sim)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("NSE with NaN gap = %v, %v (should skip the gap)", got, err)
	}
}

func TestKGE(t *testing.T) {
	obs := series(1, 2, 3, 4, 5)
	if got, err := KGE(obs, obs.Clone()); err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("KGE(perfect) = %v, %v", got, err)
	}
	// Scaled simulation degrades alpha and beta but keeps r=1.
	if got, _ := KGE(obs, obs.Scale(2)); got >= 1 || math.IsNaN(got) {
		t.Fatalf("KGE(2x) = %v, want < 1", got)
	}
	// Constant sim does not blow up.
	if got, _ := KGE(obs, series(3, 3, 3, 3, 3)); math.IsNaN(got) {
		t.Fatalf("KGE(const sim) = NaN")
	}
	flat := series(2, 2, 2)
	if _, err := KGE(flat, series(1, 2, 3)); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("constant obs err = %v", err)
	}
}

func TestLogNSEEmphasisesLowFlow(t *testing.T) {
	obs := series(0.1, 0.2, 10, 0.1, 0.2)
	lowBiased := series(0.1, 0.2, 8, 0.1, 0.2)     // errs on the peak
	highBiased := series(0.3, 0.05, 10, 0.3, 0.05) // errs on low flows
	l1, err := LogNSE(obs, lowBiased)
	if err != nil {
		t.Fatalf("LogNSE: %v", err)
	}
	l2, err := LogNSE(obs, highBiased)
	if err != nil {
		t.Fatalf("LogNSE: %v", err)
	}
	if l1 <= l2 {
		t.Fatalf("LogNSE should prefer low-flow fit: peak-err %v <= lowflow-err %v", l1, l2)
	}
}

func TestNegRMSE(t *testing.T) {
	obs := series(1, 2, 3)
	if got, err := NegRMSE(obs, obs.Clone()); err != nil || got != 0 {
		t.Fatalf("NegRMSE(perfect) = %v, %v", got, err)
	}
	got, _ := NegRMSE(obs, series(2, 3, 4))
	if math.Abs(got-(-1)) > 1e-12 {
		t.Fatalf("NegRMSE(+1 offset) = %v, want -1", got)
	}
}

func TestPBias(t *testing.T) {
	obs := series(1, 2, 3, 4)
	if got, err := PBias(obs, obs.Clone()); err != nil || got != 0 {
		t.Fatalf("PBias(perfect) = %v, %v", got, err)
	}
	// Simulation at half volume: bias +50%.
	if got, _ := PBias(obs, obs.Scale(0.5)); math.Abs(got-50) > 1e-9 {
		t.Fatalf("PBias(half) = %v, want 50", got)
	}
	zero := series(0, 0)
	if _, err := PBias(zero, zero); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("zero volume err = %v", err)
	}
}

func TestRangeValidateAndSample(t *testing.T) {
	bad := []Range{
		{Name: "inverted", Lo: 2, Hi: 1},
		{Name: "nan", Lo: math.NaN(), Hi: 1},
		{Name: "log nonpositive", Lo: 0, Hi: 1, Log: true},
	}
	for _, r := range bad {
		if err := r.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: Validate = %v", r.Name, err)
		}
	}
	if err := (Range{Name: "ok", Lo: 1, Hi: 2}).Validate(); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
}

// calibration fixture: synthetic truth produced by a known TOPMODEL,
// recovered by Monte Carlo search over (M, LnTe).
type fixture struct {
	ti      *catchment.TIDistribution
	forcing hydro.Forcing
	obs     *timeseries.Series
	truth   topmodel.Params
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	c, _ := catchment.LEFTCatchments().Get("morland")
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatalf("TI: %v", err)
	}
	gen, _ := weather.NewGenerator(weather.UKUplandClimate(), 77)
	rain, _ := gen.Rainfall(t0, time.Hour, 24*30)
	pet, _ := timeseries.Zeros(t0, time.Hour, rain.Len())
	for i := 0; i < pet.Len(); i++ {
		pet.SetAt(i, 0.04)
	}
	f := hydro.Forcing{Rain: rain, PET: pet}
	truth := topmodel.DefaultParams()
	truth.M = 25
	truth.LnTe = 5.2
	m, err := topmodel.New(truth, ti)
	if err != nil {
		t.Fatalf("truth model: %v", err)
	}
	obs, err := m.Run(f)
	if err != nil {
		t.Fatalf("truth run: %v", err)
	}
	return &fixture{ti: ti, forcing: f, obs: obs, truth: truth}
}

func (fx *fixture) factory(vals []float64) (hydro.Model, error) {
	p := topmodel.DefaultParams()
	p.M = vals[0]
	p.LnTe = vals[1]
	return topmodel.New(p, fx.ti)
}

func (fx *fixture) config(n int) MCConfig {
	return MCConfig{
		Factory: fx.factory,
		Ranges: []Range{
			{Name: "M", Lo: 5, Hi: 100},
			{Name: "LnTe", Lo: 2, Hi: 8},
		},
		Forcing:       fx.forcing,
		Observed:      fx.obs,
		N:             n,
		Seed:          1,
		KeepSimsAbove: math.Inf(1),
	}
}

func TestMonteCarloRecoverstruth(t *testing.T) {
	fx := newFixture(t)
	res, err := MonteCarlo(context.Background(), fx.config(300))
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed runs = %d", res.Failed)
	}
	if res.Best.Score < 0.9 {
		t.Fatalf("best NSE = %v, want > 0.9 (truth is in the search space)", res.Best.Score)
	}
	// Sorted best-first.
	for i := 1; i < len(res.Runs); i++ {
		if res.Runs[i].Score > res.Runs[i-1].Score {
			t.Fatalf("runs not sorted at %d", i)
		}
	}
}

func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	fx := newFixture(t)
	cfg1 := fx.config(50)
	cfg1.Pool = newPool(t, 1)
	cfg8 := fx.config(50)
	cfg8.Pool = newPool(t, 8)
	r1, err := MonteCarlo(context.Background(), cfg1)
	if err != nil {
		t.Fatalf("MonteCarlo(1): %v", err)
	}
	r8, err := MonteCarlo(context.Background(), cfg8)
	if err != nil {
		t.Fatalf("MonteCarlo(8): %v", err)
	}
	if r1.Best.Score != r8.Best.Score {
		t.Fatalf("worker count changed result: %v vs %v", r1.Best.Score, r8.Best.Score)
	}
	for i := range r1.Runs {
		if r1.Runs[i].Score != r8.Runs[i].Score {
			t.Fatalf("run order differs at %d", i)
		}
	}
}

// TestMonteCarloSharedPoolMatchesTransient pins the migration contract:
// a sweep on an externally shared compute pool produces bit-identical
// scores and samples to the transient-pool path, for any pool size.
func TestMonteCarloSharedPoolMatchesTransient(t *testing.T) {
	fx := newFixture(t)
	ref, err := MonteCarlo(context.Background(), fx.config(40))
	if err != nil {
		t.Fatalf("MonteCarlo(transient): %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p, err := sched.New(sched.Config{Workers: workers})
		if err != nil {
			t.Fatalf("sched.New(%d): %v", workers, err)
		}
		cfg := fx.config(40)
		cfg.Pool = p
		got, err := MonteCarlo(context.Background(), cfg)
		p.Close()
		if err != nil {
			t.Fatalf("MonteCarlo(shared %d): %v", workers, err)
		}
		for i := range ref.Runs {
			if ref.Runs[i].Score != got.Runs[i].Score {
				t.Fatalf("workers=%d: score differs at run %d: %v vs %v",
					workers, i, ref.Runs[i].Score, got.Runs[i].Score)
			}
			for j, v := range ref.Runs[i].Values {
				if got.Runs[i].Values[j] != v {
					t.Fatalf("workers=%d: sample differs at run %d", workers, i)
				}
			}
		}
	}
}

// newPool returns a compute pool of the given size, closed at test end.
func newPool(t *testing.T, workers int) *sched.Pool {
	t.Helper()
	p, err := sched.New(sched.Config{Workers: workers})
	if err != nil {
		t.Fatalf("sched.New(%d): %v", workers, err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestMonteCarloKeepsSims(t *testing.T) {
	fx := newFixture(t)
	cfg := fx.config(100)
	cfg.KeepSimsAbove = 0.0
	res, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	for _, r := range res.Runs {
		if r.Score > 0 && r.Sim == nil {
			t.Fatal("run above threshold missing its simulation")
		}
		if r.Score <= 0 && r.Sim != nil {
			t.Fatal("run below threshold retained a simulation")
		}
	}
}

func TestMonteCarloCancellation(t *testing.T) {
	fx := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarlo(ctx, fx.config(10000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v", err)
	}
}

func TestMonteCarloConfigValidation(t *testing.T) {
	fx := newFixture(t)
	tests := []struct {
		name   string
		mutate func(*MCConfig)
	}{
		{"nil factory", func(c *MCConfig) { c.Factory = nil }},
		{"no ranges", func(c *MCConfig) { c.Ranges = nil }},
		{"bad range", func(c *MCConfig) { c.Ranges[0].Hi = c.Ranges[0].Lo }},
		{"N zero", func(c *MCConfig) { c.N = 0 }},
		{"nil observed", func(c *MCConfig) { c.Observed = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fx.config(10)
			tc.mutate(&cfg)
			if _, err := MonteCarlo(context.Background(), cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestMonteCarloAllRunsFailed(t *testing.T) {
	fx := newFixture(t)
	cfg := fx.config(10)
	cfg.Factory = func([]float64) (hydro.Model, error) {
		return nil, errors.New("boom")
	}
	// Every run failing must surface as a sentinel, not a garbage Best
	// whose score is -Inf.
	if _, err := MonteCarlo(context.Background(), cfg); !errors.Is(err, ErrAllRunsFailed) {
		t.Fatalf("err = %v, want ErrAllRunsFailed", err)
	}
}

func TestMonteCarloPartialFailuresStillReport(t *testing.T) {
	fx := newFixture(t)
	cfg := fx.config(10)
	inner := cfg.Factory
	var n int
	var mu sync.Mutex
	cfg.Factory = func(vals []float64) (hydro.Model, error) {
		mu.Lock()
		n++
		fail := n%2 == 0
		mu.Unlock()
		if fail {
			return nil, errors.New("boom")
		}
		return inner(vals)
	}
	res, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	if res.Failed != 5 {
		t.Fatalf("failed = %d, want 5", res.Failed)
	}
	if res.Best.Err != nil || math.IsInf(res.Best.Score, -1) {
		t.Fatalf("best = %+v, want a successful run", res.Best)
	}
}

func TestBehaviouralFilter(t *testing.T) {
	fx := newFixture(t)
	res, err := MonteCarlo(context.Background(), fx.config(200))
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	beh := res.Behavioural(0.5)
	for _, r := range beh {
		if r.Score < 0.5 {
			t.Fatalf("behavioural run scored %v", r.Score)
		}
	}
	if len(beh) == 0 {
		t.Fatal("no behavioural runs above 0.5 (suspicious fixture)")
	}
	if len(res.Behavioural(2.0)) != 0 {
		t.Fatal("impossible threshold returned runs")
	}
}

func TestGLUEBounds(t *testing.T) {
	fx := newFixture(t)
	cfg := fx.config(300)
	cfg.KeepSimsAbove = 0.3
	res, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	beh := res.Behavioural(0.3)
	bounds, err := GLUE(beh, 0.05, 0.95)
	if err != nil {
		t.Fatalf("GLUE: %v", err)
	}
	if bounds.Members != len(beh) {
		t.Fatalf("members = %d, want %d", bounds.Members, len(beh))
	}
	// Envelope ordering at every step.
	for i := 0; i < bounds.Lower.Len(); i++ {
		if bounds.Lower.At(i) > bounds.Median.At(i) || bounds.Median.At(i) > bounds.Upper.At(i) {
			t.Fatalf("envelope disordered at %d: %v %v %v",
				i, bounds.Lower.At(i), bounds.Median.At(i), bounds.Upper.At(i))
		}
	}
	// The truth should fall largely inside a 5-95% envelope.
	frac, err := bounds.ContainsFraction(fx.obs)
	if err != nil {
		t.Fatalf("ContainsFraction: %v", err)
	}
	if frac < 0.5 {
		t.Fatalf("bounds contain only %.0f%% of truth", frac*100)
	}
}

func TestGLUEErrors(t *testing.T) {
	if _, err := GLUE(nil, 0.05, 0.95); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty err = %v", err)
	}
	r := RunScore{Score: 0.9, Sim: series(1, 2, 3)}
	if _, err := GLUE([]RunScore{r}, 0.9, 0.1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("inverted quantiles err = %v", err)
	}
	noSim := RunScore{Score: 0.9}
	if _, err := GLUE([]RunScore{noSim}, 0.05, 0.95); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("missing sim err = %v", err)
	}
	other := RunScore{Score: 0.8, Sim: series(1, 2)}
	if _, err := GLUE([]RunScore{r, other}, 0.05, 0.95); !errors.Is(err, ErrMismatch) {
		t.Fatalf("shape mismatch err = %v", err)
	}
}

func TestGLUEContainsFractionErrors(t *testing.T) {
	r := RunScore{Score: 0.9, Sim: series(1, 2, 3)}
	bounds, err := GLUE([]RunScore{r}, 0.05, 0.95)
	if err != nil {
		t.Fatalf("GLUE: %v", err)
	}
	if _, err := bounds.ContainsFraction(series(1, 2)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatch err = %v", err)
	}
	allNaN := series(math.NaN(), math.NaN(), math.NaN())
	if _, err := bounds.ContainsFraction(allNaN); !errors.Is(err, ErrMismatch) {
		t.Fatalf("all-NaN err = %v", err)
	}
}

func TestLogRangeSamplesWithinBounds(t *testing.T) {
	fx := newFixture(t)
	cfg := fx.config(100)
	cfg.Ranges = []Range{
		{Name: "M", Lo: 5, Hi: 100, Log: true},
		{Name: "LnTe", Lo: 2, Hi: 8},
	}
	res, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	for _, r := range res.Runs {
		if r.Values[0] < 5 || r.Values[0] > 100 {
			t.Fatalf("log sample %v outside [5,100]", r.Values[0])
		}
	}
}
