package calibrate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"evop/internal/hydro"
	"evop/internal/sched"
	"evop/internal/timeseries"
)

// Range is a uniform sampling interval for one parameter.
type Range struct {
	// Name labels the parameter for reports.
	Name string `json:"name"`
	// Lo, Hi bound the uniform sample.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Log samples log-uniformly when true (for rate-like parameters
	// spanning orders of magnitude).
	Log bool `json:"log"`
}

func (r Range) sample(rng *rand.Rand) float64 {
	if r.Log {
		return math.Exp(rng.Float64()*(math.Log(r.Hi)-math.Log(r.Lo)) + math.Log(r.Lo))
	}
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// Validate checks the range.
func (r Range) Validate() error {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) || r.Lo >= r.Hi {
		return fmt.Errorf("range %s [%v,%v]: %w", r.Name, r.Lo, r.Hi, ErrBadConfig)
	}
	if r.Log && r.Lo <= 0 {
		return fmt.Errorf("log range %s must be positive: %w", r.Name, ErrBadConfig)
	}
	return nil
}

// ErrAllRunsFailed indicates every Monte Carlo sample errored, so there
// is no best run to report.
var ErrAllRunsFailed = errors.New("calibrate: all runs failed")

// Factory builds a model for one parameter sample (values are
// positional, matching the Ranges order). It is called concurrently
// from the pool's workers.
type Factory func(values []float64) (hydro.Model, error)

// MCConfig configures a Monte Carlo calibration run.
type MCConfig struct {
	// Factory builds a model per sample.
	Factory Factory
	// Ranges define the sampled parameter space.
	Ranges []Range
	// Forcing drives every run.
	Forcing hydro.Forcing
	// Observed is the target discharge series.
	Observed *timeseries.Series
	// Objective scores each run; higher is better. Defaults to NSE.
	Objective Objective
	// N is the number of samples.
	N int
	// Seed makes sampling deterministic.
	Seed int64
	// Pool is the shared compute pool the sweep runs on. Nil builds a
	// transient pool of min(GOMAXPROCS, N) workers for this call.
	Pool *sched.Pool
	// KeepSimsAbove retains the simulated series of runs scoring above
	// this threshold for later GLUE analysis. Set to math.Inf(1) (the
	// zero-config default via NewMCConfig) to retain none.
	KeepSimsAbove float64
}

// Validate checks the configuration.
func (c *MCConfig) Validate() error {
	if c.Factory == nil {
		return fmt.Errorf("nil factory: %w", ErrBadConfig)
	}
	if len(c.Ranges) == 0 {
		return fmt.Errorf("no ranges: %w", ErrBadConfig)
	}
	for _, r := range c.Ranges {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if c.N < 1 {
		return fmt.Errorf("N=%d: %w", c.N, ErrBadConfig)
	}
	if c.Observed == nil {
		return fmt.Errorf("nil observed series: %w", ErrBadConfig)
	}
	return c.Forcing.Validate()
}

// RunScore is one Monte Carlo sample and its objective score. Sim is nil
// unless the run scored above KeepSimsAbove.
type RunScore struct {
	Values []float64
	Score  float64
	Sim    *timeseries.Series
	// Err records a failed model build/run; such runs score -Inf.
	Err error
}

// MCResult is the outcome of a Monte Carlo calibration.
type MCResult struct {
	// Runs are all samples in descending score order.
	Runs []RunScore
	// Best is Runs[0].
	Best RunScore
	// Failed counts runs that errored.
	Failed int
}

// MonteCarlo samples the parameter space, runs the model for each sample
// across the shared compute pool, scores each run, and returns all
// scores sorted best-first. It is deterministic for a given seed
// regardless of pool size (samples are pre-drawn sequentially and
// results written by index). It returns ErrAllRunsFailed if every
// sample errored.
func MonteCarlo(ctx context.Context, cfg MCConfig) (*MCResult, error) {
	if cfg.Objective == nil {
		cfg.Objective = NSE
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		p, err := sched.New(sched.Config{Workers: min(runtime.GOMAXPROCS(0), cfg.N)})
		if err != nil {
			return nil, fmt.Errorf("building pool: %w", err)
		}
		defer p.Close()
		pool = p
	}

	// Pre-draw all samples so results don't depend on scheduling.
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := make([][]float64, cfg.N)
	for i := range samples {
		vals := make([]float64, len(cfg.Ranges))
		for j, r := range cfg.Ranges {
			vals[j] = r.sample(rng)
		}
		samples[i] = vals
	}

	runs := make([]RunScore, cfg.N)
	err := sched.ForEach(ctx, pool, sched.ClassBulk, cfg.N, func(i int) error {
		runs[i] = cfg.evaluate(samples[i])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("calibration cancelled: %w", err)
	}

	failed := 0
	var firstErr error
	for i := range runs {
		if runs[i].Err != nil {
			if firstErr == nil {
				firstErr = runs[i].Err
			}
			failed++
		}
	}
	if failed == cfg.N {
		return nil, fmt.Errorf("%d/%d runs failed (first: %v): %w", failed, cfg.N, firstErr, ErrAllRunsFailed)
	}
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].Score > runs[b].Score })
	return &MCResult{Runs: runs, Best: runs[0], Failed: failed}, nil
}

func (c *MCConfig) evaluate(vals []float64) RunScore {
	rs := RunScore{Values: vals, Score: math.Inf(-1)}
	model, err := c.Factory(vals)
	if err != nil {
		rs.Err = fmt.Errorf("building model: %w", err)
		return rs
	}
	sim, err := model.Run(c.Forcing)
	if err != nil {
		rs.Err = fmt.Errorf("running model: %w", err)
		return rs
	}
	score, err := c.Objective(c.Observed, sim)
	if err != nil {
		rs.Err = fmt.Errorf("scoring model: %w", err)
		return rs
	}
	rs.Score = score
	if score > c.KeepSimsAbove {
		rs.Sim = sim
	}
	return rs
}

// Behavioural returns the runs scoring at or above the threshold (input
// must be an MCResult, already sorted).
func (r *MCResult) Behavioural(threshold float64) []RunScore {
	var out []RunScore
	for _, run := range r.Runs {
		if run.Err == nil && run.Score >= threshold {
			out = append(out, run)
		}
	}
	return out
}
