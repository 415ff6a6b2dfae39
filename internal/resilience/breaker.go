// Package resilience provides the failure-handling primitive under
// EVOp's Infrastructure Manager: a per-dependency circuit breaker. Its
// transitions derive from a clock.Clock, so every breaker trip is
// exactly reproducible under the simulated clock. The package is
// stdlib-only.
//
// The design follows the operational lessons of the hybrid-cloud EVO
// deployment the paper builds on: IaaS control planes fail transiently
// and sometimes for long stretches, so callers need a fast-fail switch
// that diverts work to another provider while one is down. (Spaced
// retries of failed terminations live in the load balancer.)
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

// ErrBadConfig indicates an invalid breaker configuration.
var ErrBadConfig = errors.New("resilience: invalid configuration")

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// Closed is normal operation: calls flow, consecutive failures are
	// counted.
	Closed BreakerState = iota + 1
	// Open fast-fails every call until the open timeout elapses.
	Open
	// HalfOpen admits a bounded number of probe calls; success closes the
	// breaker, failure reopens it.
	HalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker defaults.
const (
	// DefaultFailureThreshold is the consecutive-failure count that trips
	// a breaker when FailureThreshold is zero.
	DefaultFailureThreshold = 5
	// DefaultOpenTimeout is the open→half-open cooldown when OpenTimeout
	// is zero.
	DefaultOpenTimeout = 30 * time.Second
	// DefaultHalfOpenProbes is how many consecutive probe successes close
	// a half-open breaker when HalfOpenProbes is zero.
	DefaultHalfOpenProbes = 1
)

// BreakerConfig parameterises a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker.
	FailureThreshold int
	// OpenTimeout is how long the breaker fast-fails before admitting a
	// probe.
	OpenTimeout time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker again.
	HalfOpenProbes int
	// Clock supplies time; required.
	Clock clock.Clock
	// Name identifies this breaker in the metrics registry (the label
	// value of evop_breaker_*); empty is allowed.
	Name string
	// Metrics, when non-nil, registers the breaker's counters and its
	// state and consecutive-failure gauges.
	Metrics *metrics.Registry
}

func (c *BreakerConfig) setDefaults() {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.OpenTimeout == 0 {
		c.OpenTimeout = DefaultOpenTimeout
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = DefaultHalfOpenProbes
	}
}

// Breaker is a closed/open/half-open circuit breaker driven by a
// clock.Clock, so trips and recoveries are deterministic under the
// simulated clock. Callers gate work with Allow and report the outcome
// with Success or Failure.
type Breaker struct {
	cfg BreakerConfig

	mu sync.Mutex
	// state holds the BreakerState. It is written only under mu and read
	// by State without a lock.
	state          atomic.Int32
	consecFails    int
	probeInFlight  bool
	probeSuccesses int
	reopenAt       time.Time
	// stats
	opens     *metrics.Counter
	successes *metrics.Counter
	failures  *metrics.Counter
	rejected  *metrics.Counter
}

// NewBreaker builds a breaker; zero config fields select the defaults.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	cfg.setDefaults()
	switch {
	case cfg.Clock == nil:
		return nil, fmt.Errorf("nil clock: %w", ErrBadConfig)
	case cfg.FailureThreshold < 0 || cfg.OpenTimeout < 0 || cfg.HalfOpenProbes < 0:
		return nil, fmt.Errorf("negative threshold/timeout/probes: %w", ErrBadConfig)
	}
	reg := cfg.Metrics
	name := metrics.L("name", cfg.Name)
	b := &Breaker{
		cfg: cfg,
		opens: reg.Counter("evop_breaker_opens_total",
			"Circuit-breaker trips to the open state.", name),
		successes: reg.Counter("evop_breaker_successes_total",
			"Calls reported successful through the breaker.", name),
		failures: reg.Counter("evop_breaker_failures_total",
			"Calls reported failed through the breaker.", name),
		rejected: reg.Counter("evop_breaker_rejected_total",
			"Calls fast-failed while the breaker was open or probing.", name),
	}
	b.state.Store(int32(Closed))
	reg.GaugeFunc("evop_breaker_state",
		"Circuit-breaker position: 0 closed, 1 half-open, 2 open.",
		func() float64 { return stateGauge[b.State()] }, name)
	reg.GaugeFunc("evop_breaker_consecutive_failures",
		"Consecutive failures counted toward tripping the breaker.",
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(b.consecFails)
		}, name)
	return b, nil
}

// stateGauge is the evop_breaker_state value of each position, ordered
// by severity.
var stateGauge = map[BreakerState]float64{Closed: 0, HalfOpen: 1, Open: 2}

// Allow reports whether a call may proceed now. In the open state it
// transitions to half-open once the cooldown has elapsed and admits one
// probe; in half-open it admits one probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.State() {
	case Open:
		if b.cfg.Clock.Now().Before(b.reopenAt) {
			b.rejected.Inc()
			return false
		}
		b.state.Store(int32(HalfOpen))
		b.probeSuccesses = 0
		b.probeInFlight = true
		return true
	case HalfOpen:
		if b.probeInFlight {
			b.rejected.Inc()
			return false
		}
		b.probeInFlight = true
		return true
	default: // Closed
		return true
	}
}

// Success reports a successful call.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes.Inc()
	switch b.State() {
	case Closed:
		b.consecFails = 0
	case HalfOpen:
		b.probeInFlight = false
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.HalfOpenProbes {
			b.state.Store(int32(Closed))
			b.consecFails = 0
		}
	case Open:
		// A call admitted before the trip completed late; the cooldown
		// still applies.
	}
}

// Failure reports a failed call.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures.Inc()
	switch b.State() {
	case Closed:
		b.consecFails++
		if b.consecFails >= b.cfg.FailureThreshold {
			b.tripLocked()
		}
	case HalfOpen:
		b.probeInFlight = false
		b.tripLocked()
	case Open:
	}
}

// tripLocked opens the breaker; the lock is held.
func (b *Breaker) tripLocked() {
	b.state.Store(int32(Open))
	b.opens.Inc()
	b.reopenAt = b.cfg.Clock.Now().Add(b.cfg.OpenTimeout)
}

// State returns the current breaker position, without a lock.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }
