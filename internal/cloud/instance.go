package cloud

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/clock"
)

// InstanceState is the lifecycle state of a VM instance.
type InstanceState int

// Instance lifecycle states.
const (
	// StateBooting means the instance was launched and is not yet
	// serving.
	StateBooting InstanceState = iota + 1
	// StateRunning means the instance is serving requests.
	StateRunning
	// StateTerminated means the instance is gone.
	StateTerminated
)

// String returns the state name.
func (s InstanceState) String() string {
	switch s {
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// DegradedMode injects the failure signatures the Load Balancer must
// detect (paper Section IV-D).
type DegradedMode int

// Failure injection modes.
const (
	// Healthy is normal operation.
	Healthy DegradedMode = iota + 1
	// StuckCPU pins CPU utilisation at 100% regardless of load.
	StuckCPU
	// SilentNIC keeps receiving inbound traffic but stops sending
	// anything outbound ("zero outbound network usage whilst receiving
	// inbound traffic").
	SilentNIC
)

// String returns the mode name.
func (m DegradedMode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case StuckCPU:
		return "stuckCPU"
	case SilentNIC:
		return "silentNIC"
	default:
		return fmt.Sprintf("DegradedMode(%d)", int(m))
	}
}

// Metrics is a point-in-time snapshot of the health signals the paper's
// Load Balancer observes: "CPU utilisation, disk reads and writes, and
// network usage".
type Metrics struct {
	At             time.Time `json:"at"`
	CPUUtil        float64   `json:"cpuUtil"` // 0..1
	DiskReadBytes  uint64    `json:"diskReadBytes"`
	DiskWriteBytes uint64    `json:"diskWriteBytes"`
	NetInBytes     uint64    `json:"netInBytes"`
	NetOutBytes    uint64    `json:"netOutBytes"`
	Sessions       int       `json:"sessions"`
}

// Instance is one simulated VM.
type Instance struct {
	id       string
	addr     string
	image    Image
	flavor   Flavor
	provider string
	kind     ProviderKind
	clk      clock.Clock
	launched time.Time

	mu sync.Mutex
	// state holds the InstanceState. It is written only under mu, with
	// runningAt, terminated and cancelBoot, and read by State without a
	// lock.
	state      atomic.Int32
	runningAt  time.Time
	terminated time.Time
	cancelBoot func() bool

	sessions int
	mode     DegradedMode
	m        Metrics
}

// ID returns the instance identifier.
func (in *Instance) ID() string { return in.id }

// Addr returns the instance's service address.
func (in *Instance) Addr() string { return in.addr }

// Image returns the image the instance was launched from.
func (in *Instance) Image() Image { return in.image }

// ProviderName returns the owning provider's name.
func (in *Instance) ProviderName() string { return in.provider }

// Kind returns the owning provider's kind.
func (in *Instance) Kind() ProviderKind { return in.kind }

// State returns the current lifecycle state, without a lock.
func (in *Instance) State() InstanceState { return InstanceState(in.state.Load()) }

func (in *Instance) becomeRunning() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.State() == StateBooting {
		in.state.Store(int32(StateRunning))
		in.runningAt = in.clk.Now()
	}
}

func (in *Instance) terminate() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cancelBoot != nil {
		in.cancelBoot()
	}
	in.state.Store(int32(StateTerminated))
	in.terminated = in.clk.Now()
}

// cost returns the accrued leasing cost. Private capacity is owned
// hardware — sunk cost — so only public instances accrue.
func (in *Instance) cost() float64 {
	if in.kind == Private {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	end := in.clk.Now()
	if in.State() == StateTerminated {
		end = in.terminated
	}
	hours := end.Sub(in.launched).Hours()
	if hours < 0 {
		hours = 0
	}
	return hours * in.flavor.CostPerHour
}

// AddSession registers a user session on the instance. It returns
// ErrBadState unless the instance is running.
func (in *Instance) AddSession() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.State(); st != StateRunning {
		return fmt.Errorf("add session on %s instance %s: %w", st, in.id, ErrBadState)
	}
	in.sessions++
	return nil
}

// RemoveSession unregisters a user session.
func (in *Instance) RemoveSession() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sessions > 0 {
		in.sessions--
	}
}

// Sessions returns the active session count.
func (in *Instance) Sessions() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sessions
}

// Saturated reports whether the instance is at its session capacity.
func (in *Instance) Saturated() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sessions >= in.flavor.MaxSessions
}

// Inject sets the instance's failure mode (Healthy restores normal
// behaviour).
func (in *Instance) Inject(mode DegradedMode) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mode = mode
}

// ServeRequest simulates one request/response through the instance,
// advancing its traffic counters. Degraded modes shape the counters: a
// SilentNIC instance receives but never responds.
func (in *Instance) ServeRequest(reqBytes, respBytes uint64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.State(); st != StateRunning {
		return fmt.Errorf("request to %s instance %s: %w", st, in.id, ErrBadState)
	}
	in.m.NetInBytes += reqBytes
	in.m.DiskReadBytes += respBytes / 2
	if in.mode != SilentNIC {
		in.m.NetOutBytes += respBytes
		in.m.DiskWriteBytes += reqBytes / 4
	}
	return nil
}

// Snapshot returns current metrics. CPU utilisation derives from session
// load (sessions/capacity, capped at 1) unless a failure mode overrides
// it.
func (in *Instance) Snapshot() Metrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := in.m
	m.At = in.clk.Now()
	m.Sessions = in.sessions
	max := in.flavor.MaxSessions
	if max < 1 {
		max = 1
	}
	m.CPUUtil = float64(in.sessions) / float64(max)
	if m.CPUUtil > 1 {
		m.CPUUtil = 1
	}
	if in.mode == StuckCPU {
		m.CPUUtil = 1
	}
	return m
}
