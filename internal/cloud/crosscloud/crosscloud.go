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
	"sync/atomic"

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
	// Order returns the providers to try, most preferred first. The
	// providers slice is the façade's own and must not be modified.
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
// (evop_cloud_*_total{provider}).
type providerStats struct {
	launches        *metrics.Counter
	launchFaults    *metrics.Counter
	terminates      *metrics.Counter
	terminateFaults *metrics.Counter
	skippedOpen     *metrics.Counter
	probes          *metrics.Counter
	probeFaults     *metrics.Counter
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

// guards is the façade's outcome bookkeeping: each provider's breaker
// (breakers is nil while they are disabled) and counters, indexed like
// Multi.providers, and the failover counter. A published value is never
// changed.
type guards struct {
	breakers  []*resilience.Breaker
	stats     []*providerStats
	failovers *metrics.Counter
}

// newGuards builds the counters of every provider in reg (nil keeps them
// private), with no breakers.
func newGuards(reg *metrics.Registry, providers []cloud.Provider) *guards {
	g := &guards{
		stats: make([]*providerStats, len(providers)),
		failovers: reg.Counter("evop_cloud_failovers_total",
			"Launches that succeeded after an earlier provider was skipped or failed."),
	}
	for i, p := range providers {
		g.stats[i] = newProviderStats(reg, p.Name())
	}
	return g
}

// joined is the instance list across providers: all is the concatenation
// of parts, each provider's published list when all was built. A
// published value is never changed.
type joined struct {
	parts [][]*cloud.Instance
	all   []*cloud.Instance
}

// Multi is the cross-cloud compute façade. Its read paths take no lock:
// the guards and the joined instance list are each published whole
// through an atomic pointer.
type Multi struct {
	// providers, index and policy are fixed after New.
	providers []cloud.Provider
	index     map[string]int // provider name → position in providers
	policy    Policy

	guards atomic.Pointer[guards]
	joined atomic.Pointer[joined]
}

// New builds a Multi over the given providers with the given placement
// policy (PrivateFirst if nil).
func New(policy Policy, providers ...cloud.Provider) (*Multi, error) {
	if len(providers) == 0 {
		return nil, fmt.Errorf("no providers: %w", ErrNoProvider)
	}
	index := make(map[string]int, len(providers))
	for i, p := range providers {
		if _, dup := index[p.Name()]; dup {
			return nil, fmt.Errorf("duplicate provider %q: %w", p.Name(), ErrUnknownProvider)
		}
		index[p.Name()] = i
	}
	if policy == nil {
		policy = PrivateFirst{}
	}
	cp := make([]cloud.Provider, len(providers))
	copy(cp, providers)
	m := &Multi{providers: cp, index: index, policy: policy}
	m.guards.Store(newGuards(nil, cp))
	m.joined.Store(&joined{parts: make([][]*cloud.Instance, len(cp))})
	return m, nil
}

// EnableBreakers installs a circuit breaker per provider (cfg.Clock is
// required). Once enabled, Launch skips providers whose breaker is open,
// failing over to the next provider in policy order, and ProbeHealth
// drives open breakers back to closed once the provider recovers. A
// non-nil cfg.Metrics also receives the façade's evop_cloud_* counters;
// counts recorded before then, on the private counters New installs, are
// not carried over, so enable breakers before the first launch.
func (m *Multi) EnableBreakers(cfg resilience.BreakerConfig) error {
	breakers := make([]*resilience.Breaker, len(m.providers))
	for i, p := range m.providers {
		pcfg := cfg
		pcfg.Name = p.Name() // one metrics series per provider
		br, err := resilience.NewBreaker(pcfg)
		if err != nil {
			return fmt.Errorf("breaker for %s: %w", p.Name(), err)
		}
		breakers[i] = br
	}
	g := *m.guards.Load()
	if cfg.Metrics != nil {
		g = *newGuards(cfg.Metrics, m.providers)
	}
	g.breakers = breakers
	m.guards.Store(&g)
	return nil
}

// Providers returns the registered providers.
func (m *Multi) Providers() []cloud.Provider {
	out := make([]cloud.Provider, len(m.providers))
	copy(out, m.providers)
	return out
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
	g := m.guards.Load()
	var errs []error
	degraded := false // a provider was skipped or failed before success
	for _, p := range m.policy.Order(m.providers, img) {
		name := p.Name()
		i := m.index[name]
		if g.breakers != nil && !g.breakers[i].Allow() {
			g.stats[i].skippedOpen.Inc()
			errs = append(errs, fmt.Errorf("%s: circuit breaker open", name))
			degraded = true
			continue
		}
		inst, err := p.Launch(img, flavor)
		g.noteOutcome(i, opLaunch, err)
		if err == nil {
			if degraded {
				g.failovers.Inc()
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

// noteOutcome records one control-plane call's result in the counters
// and breaker of the provider at position i. Definitive answers from a
// healthy control plane (capacity, not-found) count as breaker
// successes; only infrastructure faults trip it.
func (g *guards) noteOutcome(i int, op opKind, err error) {
	healthy := err == nil || errors.Is(err, cloud.ErrCapacity) || errors.Is(err, cloud.ErrNotFound)
	st := g.stats[i]
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
	if g.breakers == nil {
		return
	}
	if healthy {
		g.breakers[i].Success()
	} else {
		g.breakers[i].Failure()
	}
}

// Terminate removes an instance from whichever provider owns it. A
// provider failing with an infrastructure error does not mask another
// provider owning the instance: every provider is consulted, and the
// call only errors when none succeeded. Terminations are never gated by
// the breaker — they are idempotent, and retrying them is how leaked
// instances are reclaimed — but their outcomes still feed it.
func (m *Multi) Terminate(id string) error {
	g := m.guards.Load()
	var errs []error
	for i, p := range m.providers {
		err := p.Terminate(id)
		g.noteOutcome(i, opTerminate, err)
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
// disabled. A tick with every breaker closed takes no lock.
func (m *Multi) ProbeHealth() {
	g := m.guards.Load()
	for i, br := range g.breakers {
		if br.State() == resilience.Closed || !br.Allow() {
			continue
		}
		_, err := m.providers[i].Get("breaker-probe")
		g.noteOutcome(i, opProbe, err)
	}
}

// Instances lists live instances across all providers in provider
// registration order. Like Provider.Instances, the slice is shared and
// read-only, and reading it takes no lock. The joined list is rebuilt
// only when a provider has published a new list: a provider never
// changes a published list in place, and the published joined value
// keeps each of its parts reachable, so a list whose length and first
// element's address are unchanged is the same list.
func (m *Multi) Instances() []*cloud.Instance {
	j := m.joined.Load()
	for i, p := range m.providers {
		if !sameList(p.Instances(), j.parts[i]) {
			return m.rejoin()
		}
	}
	return j.all
}

// rejoin builds and publishes the joined list from every provider's
// current list. Concurrent rebuilds may publish out of order; a reader
// that then finds an older list checks it against the providers and
// rebuilds again, so it never returns a stale one.
func (m *Multi) rejoin() []*cloud.Instance {
	j := &joined{parts: make([][]*cloud.Instance, len(m.providers))}
	n := 0
	for i, p := range m.providers {
		j.parts[i] = p.Instances()
		n += len(j.parts[i])
	}
	j.all = make([]*cloud.Instance, 0, n)
	for _, l := range j.parts {
		j.all = append(j.all, l...)
	}
	m.joined.Store(j)
	return j.all
}

// sameList reports whether a and b are the same published list.
func sameList(a, b []*cloud.Instance) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// CostAccrued sums cost across providers.
func (m *Multi) CostAccrued() float64 {
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
