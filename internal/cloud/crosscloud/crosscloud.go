// Package crosscloud is EVOp's analogue of the jclouds library the paper
// used "to promote portability and to avoid being tied in to one
// provider": a provider-agnostic façade over any number of cloud.Provider
// implementations, with pluggable placement policies.
//
// The paper gives a concrete example of why the abstraction matters:
// switching the scheduling policy from "all computations on private cloud
// until saturation" to "streamlined models to AWS and experimental ones to
// the private cloud" without touching callers. Both policies are provided
// here (PrivateFirst and ByImageKind).
package crosscloud

import (
	"errors"
	"fmt"
	"sync"

	"evop/internal/cloud"
	"evop/internal/metrics"
	"evop/internal/resilience"
)

// Common errors.
var (
	// ErrNoProvider indicates the multi-cloud has no provider able to
	// satisfy a launch.
	ErrNoProvider = errors.New("crosscloud: no provider available")
	// ErrUnknownProvider indicates a provider name that is not
	// registered.
	ErrUnknownProvider = errors.New("crosscloud: unknown provider")
)

// Policy orders the candidate providers for a launch; a launch tries each
// in turn until one accepts.
type Policy interface {
	// Name identifies the policy in logs and reports.
	Name() string
	// Order returns the providers to try, most preferred first.
	Order(providers []cloud.Provider, img cloud.Image) []cloud.Provider
}

// PrivateFirst is the paper's default policy: "user requests are served by
// default using private instances. Upon saturation of private cloud
// resources ... public cloud instances are used beside private ones."
type PrivateFirst struct{}

var _ Policy = PrivateFirst{}

// Name implements Policy.
func (PrivateFirst) Name() string { return "private-first" }

// Order implements Policy.
func (PrivateFirst) Order(providers []cloud.Provider, _ cloud.Image) []cloud.Provider {
	out := make([]cloud.Provider, 0, len(providers))
	for _, p := range providers {
		if p.Kind() == cloud.Private {
			out = append(out, p)
		}
	}
	for _, p := range providers {
		if p.Kind() == cloud.Public {
			out = append(out, p)
		}
	}
	return out
}

// ByImageKind is the paper's "more selective" example policy: streamlined
// models go to the public cloud, experimental (incubator) ones stay on the
// private cloud. Either class falls back to the other kind if its
// preferred kind is exhausted.
type ByImageKind struct{}

var _ Policy = ByImageKind{}

// Name implements Policy.
func (ByImageKind) Name() string { return "by-image-kind" }

// Order implements Policy.
func (ByImageKind) Order(providers []cloud.Provider, img cloud.Image) []cloud.Provider {
	preferred := cloud.Private
	if img.Kind == cloud.Streamlined {
		preferred = cloud.Public
	}
	out := make([]cloud.Provider, 0, len(providers))
	for _, p := range providers {
		if p.Kind() == preferred {
			out = append(out, p)
		}
	}
	for _, p := range providers {
		if p.Kind() != preferred {
			out = append(out, p)
		}
	}
	return out
}

// providerStats holds one provider's control-plane outcome counters
// (evop_cloud_*_total{provider}) and its last error message. The map
// entry and lastErr are guarded by Multi.mu.
type providerStats struct {
	launches        *metrics.Counter
	launchFaults    *metrics.Counter
	terminates      *metrics.Counter
	terminateFaults *metrics.Counter
	skippedOpen     *metrics.Counter
	probes          *metrics.Counter
	probeFaults     *metrics.Counter
	lastErr         string
}

// newProviderStats builds one provider's counters in reg (nil keeps them
// private).
func newProviderStats(reg *metrics.Registry, provider string) *providerStats {
	l := metrics.L("provider", provider)
	return &providerStats{
		launches: reg.Counter("evop_cloud_launches_total",
			"Instance launches attempted on the provider.", l),
		launchFaults: reg.Counter("evop_cloud_launch_failures_total",
			"Launches that failed with an infrastructure fault.", l),
		terminates: reg.Counter("evop_cloud_terminates_total",
			"Instance terminations attempted on the provider.", l),
		terminateFaults: reg.Counter("evop_cloud_terminate_failures_total",
			"Terminations that failed with an infrastructure fault.", l),
		skippedOpen: reg.Counter("evop_cloud_skipped_open_total",
			"Launches diverted from the provider by its open breaker.", l),
		probes: reg.Counter("evop_cloud_probes_total",
			"Health probes sent to the provider's control plane.", l),
		probeFaults: reg.Counter("evop_cloud_probe_failures_total",
			"Health probes that failed with an infrastructure fault.", l),
	}
}

// newFailovers builds the cross-provider failover counter in reg.
func newFailovers(reg *metrics.Registry) *metrics.Counter {
	return reg.Counter("evop_cloud_failovers_total",
		"Launches that succeeded after an earlier provider was skipped or failed.")
}

// ProviderHealth is a point-in-time snapshot of one provider's health as
// seen by the façade: breaker position and per-operation outcomes.
type ProviderHealth struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Breaker string `json:"breaker"` // closed | open | half-open | none
	// ConsecutiveFailures and BreakerOpens come from the breaker.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	BreakerOpens        int `json:"breakerOpens"`
	Launches            int `json:"launches"`
	LaunchFailures      int `json:"launchFailures"`
	Terminates          int `json:"terminates"`
	TerminateFailures   int `json:"terminateFailures"`
	// SkippedOpen counts launches diverted because the breaker was open.
	SkippedOpen int `json:"skippedOpen"`
	Probes      int `json:"probes"`
	// LastError is the most recent control-plane error message.
	LastError string `json:"lastError,omitempty"`
}

// Multi is the cross-cloud compute façade.
type Multi struct {
	mu        sync.RWMutex
	providers []cloud.Provider
	policy    Policy
	// breakers (one per provider, when enabled) gate launches and record
	// control-plane outcomes; stats mirrors them with counters.
	breakers  map[string]*resilience.Breaker
	stats     map[string]*providerStats
	failovers *metrics.Counter
}

// New builds a Multi over the given providers with the given placement
// policy (PrivateFirst if nil).
func New(policy Policy, providers ...cloud.Provider) (*Multi, error) {
	if len(providers) == 0 {
		return nil, fmt.Errorf("no providers: %w", ErrNoProvider)
	}
	seen := make(map[string]bool, len(providers))
	for _, p := range providers {
		if seen[p.Name()] {
			return nil, fmt.Errorf("duplicate provider %q: %w", p.Name(), ErrUnknownProvider)
		}
		seen[p.Name()] = true
	}
	if policy == nil {
		policy = PrivateFirst{}
	}
	cp := make([]cloud.Provider, len(providers))
	copy(cp, providers)
	stats := make(map[string]*providerStats, len(cp))
	for _, p := range cp {
		stats[p.Name()] = newProviderStats(nil, p.Name())
	}
	return &Multi{providers: cp, policy: policy, stats: stats, failovers: newFailovers(nil)}, nil
}

// EnableBreakers installs a circuit breaker per provider (cfg.Clock is
// required). Once enabled, Launch skips providers whose breaker is open,
// failing over to the next provider in policy order, and ProbeHealth
// drives open breakers back to closed once the provider recovers. A
// non-nil cfg.Metrics also receives the façade's evop_cloud_* counters;
// counts recorded before then, on the private counters New installs, are
// not carried over, so enable breakers before the first launch.
func (m *Multi) EnableBreakers(cfg resilience.BreakerConfig) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	breakers := make(map[string]*resilience.Breaker, len(m.providers))
	for _, p := range m.providers {
		pcfg := cfg
		pcfg.Name = p.Name() // one metrics series per provider
		br, err := resilience.NewBreaker(pcfg)
		if err != nil {
			return fmt.Errorf("breaker for %s: %w", p.Name(), err)
		}
		breakers[p.Name()] = br
	}
	m.breakers = breakers
	if cfg.Metrics != nil {
		for _, p := range m.providers {
			m.stats[p.Name()] = newProviderStats(cfg.Metrics, p.Name())
		}
		m.failovers = newFailovers(cfg.Metrics)
	}
	return nil
}

// breakerFor returns the provider's breaker, or nil when breakers are
// disabled.
func (m *Multi) breakerFor(name string) *resilience.Breaker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.breakers[name]
}

// statsFor returns the provider's counters (always present for registered
// providers).
func (m *Multi) statsFor(name string) *providerStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats[name]
}

// SetPolicy swaps the placement policy at runtime — the interoperability
// the paper calls out ("changing the scheduling policy ... proved quite
// useful").
func (m *Multi) SetPolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p != nil {
		m.policy = p
	}
}

// Policy returns the active placement policy.
func (m *Multi) Policy() Policy {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.policy
}

// Providers returns the registered providers.
func (m *Multi) Providers() []cloud.Provider {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]cloud.Provider, len(m.providers))
	copy(out, m.providers)
	return out
}

// Provider returns a registered provider by name.
func (m *Multi) Provider(name string) (cloud.Provider, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, p := range m.providers {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%q: %w", name, ErrUnknownProvider)
}

// Launch places a new instance according to the active policy, trying
// providers in policy order until one accepts. Providers whose circuit
// breaker is open are skipped, and a provider that fails with an
// infrastructure error (rather than ErrCapacity) no longer aborts the
// launch — the next provider in order is tried instead, so a single
// misbehaving control plane cannot block placement while another cloud
// has capacity. It returns ErrNoProvider when every provider is at
// capacity, unreachable or gated.
func (m *Multi) Launch(img cloud.Image, flavor cloud.Flavor) (*cloud.Instance, error) {
	m.mu.RLock()
	policy := m.policy
	providers := make([]cloud.Provider, len(m.providers))
	copy(providers, m.providers)
	m.mu.RUnlock()

	var errs []error
	degraded := false // a provider was skipped or failed before success
	for _, p := range policy.Order(providers, img) {
		name := p.Name()
		if br := m.breakerFor(name); br != nil && !br.Allow() {
			m.statsFor(name).skippedOpen.Inc()
			errs = append(errs, fmt.Errorf("%s: circuit breaker open", name))
			degraded = true
			continue
		}
		inst, err := p.Launch(img, flavor)
		m.noteOutcome(name, opLaunch, err)
		if err == nil {
			if degraded {
				m.mu.RLock()
				m.failovers.Inc()
				m.mu.RUnlock()
			}
			return inst, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", name, err))
		if !errors.Is(err, cloud.ErrCapacity) {
			degraded = true
		}
	}
	return nil, fmt.Errorf("all providers exhausted: %w (%w)", ErrNoProvider, errors.Join(errs...))
}

// launch/terminate/probe operation tags for noteOutcome.
type opKind int

const (
	opLaunch opKind = iota + 1
	opTerminate
	opProbe
)

// noteOutcome records one control-plane call's result in the provider's
// counters and breaker. Definitive answers from a healthy control plane
// (capacity, not-found) count as breaker successes; only infrastructure
// faults trip it.
func (m *Multi) noteOutcome(name string, op opKind, err error) {
	healthy := err == nil || errors.Is(err, cloud.ErrCapacity) || errors.Is(err, cloud.ErrNotFound)
	m.mu.Lock()
	st := m.stats[name]
	switch op {
	case opLaunch:
		st.launches.Inc()
		if !healthy {
			st.launchFaults.Inc()
		}
	case opTerminate:
		st.terminates.Inc()
		if !healthy {
			st.terminateFaults.Inc()
		}
	case opProbe:
		st.probes.Inc()
		if !healthy {
			st.probeFaults.Inc()
		}
	}
	if err != nil && !errors.Is(err, cloud.ErrCapacity) && !errors.Is(err, cloud.ErrNotFound) {
		st.lastErr = err.Error()
	}
	br := m.breakers[name]
	m.mu.Unlock()
	if br == nil {
		return
	}
	if healthy {
		br.Success()
	} else {
		br.Failure()
	}
}

// Terminate removes an instance from whichever provider owns it. A
// provider failing with an infrastructure error does not mask another
// provider owning the instance: every provider is consulted, and the
// call only errors when none succeeded. Terminations are never gated by
// the breaker — they are idempotent, and retrying them is how leaked
// instances are reclaimed — but their outcomes still feed it.
func (m *Multi) Terminate(id string) error {
	m.mu.RLock()
	providers := make([]cloud.Provider, len(m.providers))
	copy(providers, m.providers)
	m.mu.RUnlock()
	var errs []error
	for _, p := range providers {
		err := p.Terminate(id)
		m.noteOutcome(p.Name(), opTerminate, err)
		if err == nil {
			return nil
		}
		if !errors.Is(err, cloud.ErrNotFound) {
			errs = append(errs, fmt.Errorf("%s: %w", p.Name(), err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("terminate %s: %w", id, errors.Join(errs...))
	}
	return fmt.Errorf("terminate %s: %w", id, cloud.ErrNotFound)
}

// ProbeHealth sends a cheap control-plane read (Get on a sentinel ID) to
// every provider whose breaker is not closed, so breakers recover to
// closed even when no launch traffic is flowing. A definitive ErrNotFound
// answer proves the control plane is back. No-op when breakers are
// disabled.
func (m *Multi) ProbeHealth() {
	m.mu.RLock()
	providers := make([]cloud.Provider, len(m.providers))
	copy(providers, m.providers)
	m.mu.RUnlock()
	for _, p := range providers {
		br := m.breakerFor(p.Name())
		if br == nil || br.State() == resilience.Closed {
			continue
		}
		if !br.Allow() {
			continue
		}
		_, err := p.Get("breaker-probe")
		m.noteOutcome(p.Name(), opProbe, err)
	}
}

// Health returns per-provider health snapshots in registration order.
func (m *Multi) Health() []ProviderHealth {
	m.mu.RLock()
	providers := make([]cloud.Provider, len(m.providers))
	copy(providers, m.providers)
	m.mu.RUnlock()
	out := make([]ProviderHealth, 0, len(providers))
	for _, p := range providers {
		name := p.Name()
		h := ProviderHealth{Name: name, Kind: p.Kind().String(), Breaker: "none"}
		if br := m.breakerFor(name); br != nil {
			st := br.Stats()
			h.Breaker = st.StateName
			h.ConsecutiveFailures = st.ConsecutiveFailures
			h.BreakerOpens = st.Opens
		}
		m.mu.RLock()
		if st := m.stats[name]; st != nil {
			h.Launches = int(st.launches.Value())
			h.LaunchFailures = int(st.launchFaults.Value())
			h.Terminates = int(st.terminates.Value())
			h.TerminateFailures = int(st.terminateFaults.Value())
			h.SkippedOpen = int(st.skippedOpen.Value())
			h.Probes = int(st.probes.Value())
			h.LastError = st.lastErr
		}
		m.mu.RUnlock()
		out = append(out, h)
	}
	return out
}

// Failovers reports how many launches succeeded on a provider after an
// earlier provider in policy order was skipped (breaker open) or failed
// with an infrastructure error.
func (m *Multi) Failovers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int(m.failovers.Value())
}

// Instances lists live instances across all providers in provider
// registration order.
func (m *Multi) Instances() []*cloud.Instance {
	m.mu.RLock()
	providers := make([]cloud.Provider, len(m.providers))
	copy(providers, m.providers)
	m.mu.RUnlock()
	var out []*cloud.Instance
	for _, p := range providers {
		out = append(out, p.Instances()...)
	}
	return out
}

// CostAccrued sums cost across providers.
func (m *Multi) CostAccrued() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0.0
	for _, p := range m.providers {
		total += p.CostAccrued()
	}
	return total
}

// CountByKind reports live instance counts split by provider kind.
func (m *Multi) CountByKind() (private, public int) {
	for _, inst := range m.Instances() {
		switch inst.Kind() {
		case cloud.Private:
			private++
		case cloud.Public:
			public++
		}
	}
	return private, public
}
