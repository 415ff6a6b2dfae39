// Package cloud is EVOp's IaaS substrate: a discrete-event simulation of
// the paper's hybrid infrastructure — a private OpenStack cloud of fixed
// capacity plus an elastic, pay-per-use public cloud (AWS in the paper) —
// behind one Provider interface.
//
// The simulation models exactly the properties the paper's infrastructure
// management behaviours depend on: bounded private capacity, instance boot
// latency (higher for public instances and for generic "incubator" images
// than for pre-baked streamlined bundles), per-instance health metrics
// (CPU utilisation, disk I/O, network in/out — the signals the Load
// Balancer watches), per-hour cost accrual, and failure injection for the
// malfunction-detection experiments. Time comes from a clock.Clock, so
// every infrastructure experiment is deterministic under a simulated
// clock.
package cloud

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/clock"
)

// Common errors.
var (
	// ErrCapacity indicates the provider cannot host another instance.
	ErrCapacity = errors.New("cloud: provider at capacity")
	// ErrNotFound indicates an unknown instance ID.
	ErrNotFound = errors.New("cloud: instance not found")
	// ErrBadState indicates an operation invalid for the instance state.
	ErrBadState = errors.New("cloud: invalid instance state")
	// ErrBadConfig indicates an invalid provider configuration.
	ErrBadConfig = errors.New("cloud: invalid configuration")
	// ErrTransient indicates a momentary control-plane failure; the call
	// did not take effect and may be retried.
	ErrTransient = errors.New("cloud: transient provider error")
	// ErrOutage indicates the provider's control plane is down for a
	// stretch; calls fail until the outage window ends.
	ErrOutage = errors.New("cloud: provider outage")
	// ErrTimeout indicates a control-plane call exceeded its deadline;
	// the call did not take effect and may be retried.
	ErrTimeout = errors.New("cloud: provider call timed out")
)

// ProviderKind distinguishes owned from leased infrastructure.
type ProviderKind int

// Provider kinds.
const (
	// Private is the owned, fixed-capacity cloud (OpenStack in EVOp).
	Private ProviderKind = iota + 1
	// Public is the leased, elastic cloud (AWS in EVOp).
	Public
)

// String returns the kind name.
func (k ProviderKind) String() string {
	switch k {
	case Private:
		return "private"
	case Public:
		return "public"
	default:
		return fmt.Sprintf("ProviderKind(%d)", int(k))
	}
}

// ImageKind distinguishes the Model Library's two image classes
// (paper Section IV-D).
type ImageKind int

// Image kinds.
const (
	// Streamlined is a pre-baked execution bundle: calibrated model +
	// data, fast to boot.
	Streamlined ImageKind = iota + 1
	// Incubator is a generic image models are installed into at runtime;
	// slower to become useful.
	Incubator
)

// String returns the kind name.
func (k ImageKind) String() string {
	switch k {
	case Streamlined:
		return "streamlined"
	case Incubator:
		return "incubator"
	default:
		return fmt.Sprintf("ImageKind(%d)", int(k))
	}
}

// Image is a VM image from the Model Library.
type Image struct {
	// ID identifies the image ("topmodel-morland-v3").
	ID string `json:"id"`
	// Name is the display name.
	Name string `json:"name"`
	// Kind is Streamlined or Incubator.
	Kind ImageKind `json:"kind"`
	// ExtraBootDelay is added to the provider's base boot latency
	// (incubator images carry provisioning time).
	ExtraBootDelay time.Duration `json:"extraBootDelay"`
	// Services lists the web services the image exposes when running
	// (WPS process identifiers).
	Services []string `json:"services"`
}

// Flavor is an instance size.
type Flavor struct {
	// Name identifies the flavor ("m1.medium").
	Name string `json:"name"`
	// VCPUs is the virtual CPU count.
	VCPUs int `json:"vcpus"`
	// MemoryGB is the RAM size.
	MemoryGB float64 `json:"memoryGb"`
	// CostPerHour is the leasing cost (0 for private capacity, which is
	// sunk cost).
	CostPerHour float64 `json:"costPerHour"`
	// MaxSessions is how many concurrent user sessions the instance
	// serves at nominal quality.
	MaxSessions int `json:"maxSessions"`
}

// DefaultFlavor returns the general-purpose flavor used across the
// experiments.
func DefaultFlavor() Flavor {
	return Flavor{Name: "m1.medium", VCPUs: 2, MemoryGB: 4, CostPerHour: 0.10, MaxSessions: 8}
}

// Provider is the uniform compute interface (the role jclouds played in
// EVOp): one API over private and public clouds.
type Provider interface {
	// Name identifies the provider ("openstack-lancaster", "aws-eu").
	Name() string
	// Kind reports Private or Public.
	Kind() ProviderKind
	// Launch starts a new instance. It returns ErrCapacity when full.
	// The instance is Booting until its boot delay elapses.
	Launch(img Image, flavor Flavor) (*Instance, error)
	// Terminate stops and removes an instance.
	Terminate(id string) error
	// Get returns a live instance by ID.
	Get(id string) (*Instance, error)
	// Instances lists live (non-terminated) instances, ordered by launch.
	// The slice is shared with every caller and is read-only: a launch or
	// termination publishes a new slice rather than changing a published
	// one, so a list taken earlier stays as it was.
	Instances() []*Instance
	// Capacity reports used and total instance slots (Total < 0 means
	// unbounded).
	Capacity() (used, total int)
	// CostAccrued returns the total cost incurred so far.
	CostAccrued() float64
}

// Config parameterises a simulated provider.
type Config struct {
	// Name identifies the provider.
	Name string
	// Kind is Private or Public.
	Kind ProviderKind
	// MaxInstances bounds concurrent instances; <0 means unbounded
	// (public clouds).
	MaxInstances int
	// BootDelay is the base time from Launch to Running.
	BootDelay time.Duration
	// AddrPrefix builds instance addresses ("10.1.0." → "10.1.0.7:8080").
	AddrPrefix string
	// Clock supplies time; required.
	Clock clock.Clock
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("empty name: %w", ErrBadConfig)
	}
	if c.Kind != Private && c.Kind != Public {
		return fmt.Errorf("kind %d: %w", int(c.Kind), ErrBadConfig)
	}
	if c.BootDelay < 0 {
		return fmt.Errorf("negative boot delay: %w", ErrBadConfig)
	}
	if c.Clock == nil {
		return fmt.Errorf("nil clock: %w", ErrBadConfig)
	}
	if c.AddrPrefix == "" {
		return fmt.Errorf("empty addr prefix: %w", ErrBadConfig)
	}
	return nil
}

// SimProvider is the simulated IaaS provider.
type SimProvider struct {
	cfg Config

	// mu serialises Launch and Terminate, and guards seq and accrued.
	mu  sync.Mutex
	seq int
	// accrued is the cost of terminated instances; live ones add their
	// running cost.
	accrued float64
	// live points at the live instances in launch order. Launch and
	// Terminate build a fresh slice under mu and Store a pointer to it,
	// never writing to a published one, so readers Load it without a
	// lock and hand it out without a copy.
	live atomic.Pointer[[]*Instance]
}

var _ Provider = (*SimProvider)(nil)

// NewProvider builds a simulated provider.
func NewProvider(cfg Config) (*SimProvider, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &SimProvider{cfg: cfg}
	p.live.Store(new([]*Instance))
	return p, nil
}

// Name implements Provider.
func (p *SimProvider) Name() string { return p.cfg.Name }

// Kind implements Provider.
func (p *SimProvider) Kind() ProviderKind { return p.cfg.Kind }

// Launch implements Provider.
func (p *SimProvider) Launch(img Image, flavor Flavor) (*Instance, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.live.Load()
	if p.cfg.MaxInstances >= 0 && len(old) >= p.cfg.MaxInstances {
		return nil, fmt.Errorf("provider %s (%d/%d): %w",
			p.cfg.Name, len(old), p.cfg.MaxInstances, ErrCapacity)
	}
	p.seq++
	id := p.cfg.Name + "-i" + strconv.Itoa(p.seq)
	inst := &Instance{
		id:       id,
		addr:     p.cfg.AddrPrefix + strconv.Itoa(p.seq%250+2) + ":8080",
		image:    img,
		flavor:   flavor,
		provider: p.cfg.Name,
		kind:     p.cfg.Kind,
		clk:      p.cfg.Clock,
		launched: p.cfg.Clock.Now(),
	}
	inst.state.Store(int32(StateBooting))
	delay := p.cfg.BootDelay + img.ExtraBootDelay
	inst.cancelBoot = p.cfg.Clock.AfterFunc(delay, inst.becomeRunning)
	// Publish the instance only once it is fully built.
	live := make([]*Instance, len(old)+1)
	copy(live, old)
	live[len(old)] = inst
	p.live.Store(&live)
	return inst, nil
}

// Terminate implements Provider.
func (p *SimProvider) Terminate(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.live.Load()
	i := index(old, id)
	if i < 0 {
		return fmt.Errorf("terminate %s: %w", id, ErrNotFound)
	}
	inst := old[i]
	p.accrued += inst.cost()
	inst.terminate()
	live := make([]*Instance, 0, len(old)-1)
	live = append(live, old[:i]...)
	live = append(live, old[i+1:]...)
	p.live.Store(&live)
	return nil
}

// index returns the position of the instance with the given ID in list,
// or -1.
func index(list []*Instance, id string) int {
	for i, inst := range list {
		if inst.id == id {
			return i
		}
	}
	return -1
}

// Get implements Provider: it searches the published list without a
// lock.
func (p *SimProvider) Get(id string) (*Instance, error) {
	live := *p.live.Load()
	i := index(live, id)
	if i < 0 {
		return nil, fmt.Errorf("get %s: %w", id, ErrNotFound)
	}
	return live[i], nil
}

// Instances implements Provider: it returns the published list itself,
// without a copy or a lock.
func (p *SimProvider) Instances() []*Instance { return *p.live.Load() }

// Capacity implements Provider, from the published list without a lock.
func (p *SimProvider) Capacity() (used, total int) {
	return len(*p.live.Load()), p.cfg.MaxInstances
}

// CostAccrued implements Provider: accrued cost of terminated instances
// plus the running cost of live ones. It holds mu, so a termination
// cannot move an instance's cost from the list into accrued mid-sum.
func (p *SimProvider) CostAccrued() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.accrued
	for _, inst := range *p.live.Load() {
		total += inst.cost()
	}
	return total
}
