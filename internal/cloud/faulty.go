package cloud

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"evop/internal/clock"
)

// FaultSpec parameterises deterministic provider-level fault injection —
// the control-plane counterpart of the instance-level DegradedMode. All
// randomness comes from Seed, so a chaos run replays identically for the
// same seed and call sequence.
type FaultSpec struct {
	// Seed selects the fault stream.
	Seed int64
	// LaunchErrorRate, TerminateErrorRate and GetErrorRate are the
	// per-call probabilities (0..1) of failing with ErrTransient before
	// the operation takes effect.
	LaunchErrorRate    float64
	TerminateErrorRate float64
	GetErrorRate       float64
	// SlowCallRate is the per-call probability of injecting
	// SlowCallLatency of simulated control-plane latency. Slow calls
	// still succeed unless CallTimeout marks them as timed out.
	SlowCallRate    float64
	SlowCallLatency time.Duration
	// CallTimeout, when positive, fails any call whose injected latency
	// reaches it with ErrTimeout (the operation does not take effect) —
	// the caller-visible shape of a hung control plane.
	CallTimeout time.Duration
}

func (s FaultSpec) validate() error {
	for _, r := range []float64{s.LaunchErrorRate, s.TerminateErrorRate, s.GetErrorRate, s.SlowCallRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault rate %v outside [0,1]: %w", r, ErrBadConfig)
		}
	}
	if s.SlowCallLatency < 0 || s.CallTimeout < 0 {
		return fmt.Errorf("negative latency/timeout: %w", ErrBadConfig)
	}
	return nil
}

// OutageWindow is a scheduled control-plane outage: calls in [From, To)
// fail with ErrOutage.
type OutageWindow struct {
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
}

// FaultStats counts injected faults per operation.
type FaultStats struct {
	Launches        int `json:"launches"`
	LaunchFaults    int `json:"launchFaults"`
	Terminates      int `json:"terminates"`
	TerminateFaults int `json:"terminateFaults"`
	Gets            int `json:"gets"`
	GetFaults       int `json:"getFaults"`
	// Breakdown by fault class, across operations.
	Transients int `json:"transients"`
	Outages    int `json:"outages"`
	Timeouts   int `json:"timeouts"`
	SlowCalls  int `json:"slowCalls"`
	// MaxLatency is the largest injected call latency observed.
	MaxLatency time.Duration `json:"maxLatency"`
}

// FaultyProvider decorates any Provider with seeded, deterministic fault
// injection on the control-plane calls (Launch, Terminate, Get):
// transient errors, scheduled outage windows and slow calls that can trip
// a call timeout. Read-side views (Instances, Capacity, CostAccrued) pass
// through unfaulted — they model the LB's local bookkeeping, not remote
// API calls. A failed call has no side effect on the wrapped provider.
type FaultyProvider struct {
	inner Provider
	clk   clock.Clock

	mu      sync.Mutex
	spec    FaultSpec
	rng     *rand.Rand
	outages []OutageWindow
	stats   FaultStats
}

var _ Provider = (*FaultyProvider)(nil)

// NewFaultyProvider wraps a provider with fault injection.
func NewFaultyProvider(inner Provider, clk clock.Clock, spec FaultSpec) (*FaultyProvider, error) {
	if inner == nil {
		return nil, fmt.Errorf("nil inner provider: %w", ErrBadConfig)
	}
	if clk == nil {
		return nil, fmt.Errorf("nil clock: %w", ErrBadConfig)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &FaultyProvider{
		inner: inner,
		clk:   clk,
		spec:  spec,
		rng:   rand.New(rand.NewSource(spec.Seed)),
	}, nil
}

// Inner returns the wrapped provider.
func (f *FaultyProvider) Inner() Provider { return f.inner }

// ScheduleOutage adds a control-plane outage window starting at from and
// lasting d.
func (f *FaultyProvider) ScheduleOutage(from time.Time, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.outages = append(f.outages, OutageWindow{From: from, To: from.Add(d)})
}

// SetErrorRates adjusts the transient-error probabilities at runtime (the
// fault stream keeps its position, so healing mid-run stays
// deterministic).
func (f *FaultyProvider) SetErrorRates(launch, terminate, get float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spec.LaunchErrorRate = launch
	f.spec.TerminateErrorRate = terminate
	f.spec.GetErrorRate = get
}

// Stats returns the fault counters.
func (f *FaultyProvider) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// fault rolls the fault dice for one call. It returns a non-nil error when
// the call must fail without reaching the inner provider.
func (f *FaultyProvider) fault(op string, calls, faults *int, rate float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	*calls++
	now := f.clk.Now()
	for _, w := range f.outages {
		if !now.Before(w.From) && now.Before(w.To) {
			*faults++
			f.stats.Outages++
			return fmt.Errorf("%s %s during outage (until %s): %w",
				f.inner.Name(), op, w.To.Format(time.RFC3339), ErrOutage)
		}
	}
	if rate > 0 && f.rng.Float64() < rate {
		*faults++
		f.stats.Transients++
		return fmt.Errorf("%s %s: injected fault: %w", f.inner.Name(), op, ErrTransient)
	}
	if f.spec.SlowCallRate > 0 && f.rng.Float64() < f.spec.SlowCallRate {
		f.stats.SlowCalls++
		if f.spec.SlowCallLatency > f.stats.MaxLatency {
			f.stats.MaxLatency = f.spec.SlowCallLatency
		}
		if f.spec.CallTimeout > 0 && f.spec.SlowCallLatency >= f.spec.CallTimeout {
			*faults++
			f.stats.Timeouts++
			return fmt.Errorf("%s %s after %v (deadline %v): %w",
				f.inner.Name(), op, f.spec.SlowCallLatency, f.spec.CallTimeout, ErrTimeout)
		}
	}
	return nil
}

// Name implements Provider.
func (f *FaultyProvider) Name() string { return f.inner.Name() }

// Kind implements Provider.
func (f *FaultyProvider) Kind() ProviderKind { return f.inner.Kind() }

// Launch implements Provider, subject to fault injection.
func (f *FaultyProvider) Launch(img Image, flavor Flavor) (*Instance, error) {
	if err := f.fault("launch", &f.stats.Launches, &f.stats.LaunchFaults, f.spec.LaunchErrorRate); err != nil {
		return nil, err
	}
	return f.inner.Launch(img, flavor)
}

// Terminate implements Provider, subject to fault injection.
func (f *FaultyProvider) Terminate(id string) error {
	if err := f.fault("terminate", &f.stats.Terminates, &f.stats.TerminateFaults, f.spec.TerminateErrorRate); err != nil {
		return err
	}
	return f.inner.Terminate(id)
}

// Get implements Provider, subject to fault injection.
func (f *FaultyProvider) Get(id string) (*Instance, error) {
	if err := f.fault("get", &f.stats.Gets, &f.stats.GetFaults, f.spec.GetErrorRate); err != nil {
		return nil, err
	}
	return f.inner.Get(id)
}

// Instances implements Provider (unfaulted pass-through).
func (f *FaultyProvider) Instances() []*Instance { return f.inner.Instances() }

// Capacity implements Provider (unfaulted pass-through).
func (f *FaultyProvider) Capacity() (used, total int) { return f.inner.Capacity() }

// CostAccrued implements Provider (unfaulted pass-through).
func (f *FaultyProvider) CostAccrued() float64 { return f.inner.CostAccrued() }
