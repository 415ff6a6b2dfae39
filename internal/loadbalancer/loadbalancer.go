// Package loadbalancer implements EVOp's Load Balancer (LB, paper Section
// IV-D), the Infrastructure Manager module that "monitors the health
// status of running instances with two objectives: minimise costs and
// maintain instance responsiveness".
//
// Behaviours reproduced from the paper:
//
//   - cloudbursting: "user requests are served by default using private
//     instances. Upon saturation of private cloud resources, LB initiates
//     cloudbursting mode where public cloud instances are used beside
//     private ones. This is reversed upon detecting underuse, migrating
//     users back to use private instances."
//   - malfunction detection: "instance statistics are observed, namely
//     CPU utilisation, disk reads and writes, and network usage.
//     Degradation in these metrics, such as sustained high CPU
//     utilisation or zero outbound network usage whilst receiving inbound
//     traffic, triggers LB into starting a new instance and redirecting
//     users that were being served by the seemingly malfunctioning
//     instance to the newly created one."
//   - session redistribution: "LB also monitors the state of active user
//     sessions and redistributes users on running cloud instances
//     accordingly. RB is used to push updated session information in
//     order to redirect user calls."
//
// The LB runs a periodic control loop on a clock.Clock, so all behaviours
// are deterministic under the simulated clock.
package loadbalancer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/metrics"
)

// ErrBadConfig indicates an invalid load balancer configuration.
var ErrBadConfig = errors.New("loadbalancer: invalid configuration")

// Config parameterises the LB control loop.
type Config struct {
	// Multi is the cross-cloud compute façade instances are launched on.
	Multi *crosscloud.Multi
	// Broker is consulted for sessions and used to migrate them.
	Broker *broker.Broker
	// Clock drives the control loop.
	Clock clock.Clock
	// Image is the VM image launched for new capacity.
	Image cloud.Image
	// Flavor is the instance size launched.
	Flavor cloud.Flavor
	// Interval is the control loop period.
	Interval time.Duration
	// SuspectTicks is how many consecutive suspect observations trigger
	// replacement. Default 3.
	SuspectTicks int
	// MinInstances keeps a floor of warm instances (prewarming). Default
	// 1.
	MinInstances int
	// Metrics, when non-nil, registers the LB's control-loop and
	// robustness counters in the registry.
	Metrics *metrics.Registry
}

// Fixed control-loop thresholds.
const (
	// highCPUThreshold marks an instance suspect when CPU utilisation
	// meets or exceeds it.
	highCPUThreshold = 0.95
	// reclaimIdleTicks is how many consecutive idle (zero-session)
	// observations allow an instance to be reclaimed.
	reclaimIdleTicks = 3
)

func (c *Config) setDefaults() {
	if c.SuspectTicks == 0 {
		c.SuspectTicks = 3
	}
	if c.MinInstances == 0 {
		c.MinInstances = 1
	}
}

// terminateDelay is the wait before retry k (0-based) of a failed
// Terminate call — a failed termination is leaked cost until it
// succeeds: interval·2^k, capped at 16·interval.
func terminateDelay(interval time.Duration, k int) time.Duration {
	d := interval
	for i := 0; i < k && d < 16*interval; i++ {
		d *= 2
	}
	return d
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Multi == nil:
		return fmt.Errorf("nil multi-cloud: %w", ErrBadConfig)
	case c.Broker == nil:
		return fmt.Errorf("nil broker: %w", ErrBadConfig)
	case c.Clock == nil:
		return fmt.Errorf("nil clock: %w", ErrBadConfig)
	case c.Interval <= 0:
		return fmt.Errorf("interval %v: %w", c.Interval, ErrBadConfig)
	case c.Flavor.MaxSessions < 1:
		return fmt.Errorf("flavor MaxSessions %d: %w", c.Flavor.MaxSessions, ErrBadConfig)
	}
	return nil
}

// Event records one management action, for experiment reporting. Its
// Action is one of actionNames.
type Event struct {
	At     time.Time `json:"at"`
	Action string    `json:"action"`
	Detail string    `json:"detail"`
}

// The management actions the LB records.
const (
	actLaunch = iota
	actTerminate
	actReplace
	actMigrate
	actSuspend
	actTerminateFailed
	actTerminateCancelled
	numActions
)

// actionNames is each action's Event.Action and its
// evop_lb_actions_total label.
var actionNames = [numActions]string{
	"launch", "terminate", "replace", "migrate", "suspend",
	"terminate-failed", "terminate-cancelled",
}

// maxEvents bounds the event log: it keeps the newest maxEvents events.
// The counters in evop_lb_actions_total keep the lifetime totals.
const maxEvents = 256

// termRetry is one entry in the terminate-retry queue: an instance whose
// Terminate call failed and must be retried with backoff until the
// provider confirms it is gone (otherwise it silently leaks cost).
type termRetry struct {
	attempts int
	nextAt   time.Time
	reason   string
	// idle marks scale-down terminations, which are cancelled if the
	// instance picks up sessions while the retry is pending.
	idle bool
}

// instanceTrack holds the LB's rolling observations of one instance.
type instanceTrack struct {
	suspectTicks int
	idleTicks    int
	lastNetIn    uint64
	lastNetOut   uint64
	seen         bool
	// live is the number of the last observation that found the
	// instance live; a track behind the current one is dropped.
	live uint64
}

// LB is the load balancer.
type LB struct {
	cfg Config

	// tickMu serialises control-loop iterations; Stop acquires it after
	// clearing running so no tick body is in flight once Stop returns.
	tickMu sync.Mutex

	mu       sync.Mutex
	running  bool
	stopTick func() bool
	tracks   map[string]*instanceTrack
	observed uint64 // observeHealth passes so far
	// events is the event log, a ring of at most maxEvents entries whose
	// oldest is at events[oldest].
	events   []Event
	oldest   int
	actions  [numActions]*metrics.Counter
	ticks    *metrics.Counter
	replaced *metrics.Counter
	// replacing is the in-flight replacement table: suspect instance ID →
	// replacement instance ID ("" while the replacement launch keeps
	// failing). A suspect with an entry never triggers another launch, so
	// a failing Terminate cannot cause a replacement storm.
	replacing map[string]string
	// termRetries is the terminate-retry queue, keyed by instance ID.
	termRetries map[string]*termRetry
	// robustness counters (evop_lb_*_total).
	launchFailures        *metrics.Counter
	terminateFailures     *metrics.Counter
	terminateRetries      *metrics.Counter
	recoveredTerminations *metrics.Counter
}

var _ broker.Placer = (*LB)(nil)

// New builds an LB. Call Start to begin the control loop; PlaceNow works
// even when the loop is stopped.
func New(cfg Config) (*LB, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	lb := &LB{
		cfg:         cfg,
		tracks:      make(map[string]*instanceTrack),
		replacing:   make(map[string]string),
		termRetries: make(map[string]*termRetry),
		ticks: reg.Counter("evop_lb_ticks_total",
			"Load-balancer control-loop iterations."),
		replaced: reg.Counter("evop_lb_replaced_total",
			"Malfunctioning instances replaced."),
		launchFailures: reg.Counter("evop_lb_launch_failures_total",
			"Instance launches that failed."),
		terminateFailures: reg.Counter("evop_lb_terminate_failures_total",
			"Instance terminations that failed (leaked cost until retried)."),
		terminateRetries: reg.Counter("evop_lb_terminate_retries_total",
			"Scheduled retries of failed terminations."),
		recoveredTerminations: reg.Counter("evop_lb_recovered_terminations_total",
			"Failed terminations eventually recovered by retry."),
	}
	for a, name := range actionNames {
		lb.actions[a] = reg.Counter("evop_lb_actions_total",
			"Management actions recorded, by action (a failed launch or replacement launch counts too).",
			metrics.L("action", name))
	}
	reg.GaugeFunc("evop_lb_outstanding_terminations",
		"Failed terminations queued for retry (each still accrues cost).",
		func() float64 {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return float64(len(lb.termRetries))
		})
	reg.GaugeFunc("evop_lb_inflight_replacements",
		"Suspect instances with a replacement pending.",
		func() float64 {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return float64(len(lb.replacing))
		})
	cfg.Broker.SetPlacer(lb)
	return lb, nil
}

// Start launches the periodic control loop. It is idempotent.
func (lb *LB) Start() {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if lb.running {
		return
	}
	lb.running = true
	lb.stopTick = lb.cfg.Clock.Every(lb.cfg.Interval, lb.loopTick)
}

// loopTick is the timer callback: it runs one Tick, but only while the
// loop is running. A callback already in flight when Stop is called
// finds running false and does nothing, so no management action (or
// recorded event) can happen after Stop returns.
func (lb *LB) loopTick() {
	lb.tickMu.Lock()
	defer lb.tickMu.Unlock()
	lb.mu.Lock()
	running := lb.running
	lb.mu.Unlock()
	if running {
		lb.Tick()
	}
}

// Stop halts the control loop. When it returns, no tick started by the
// loop is still executing and none will start.
func (lb *LB) Stop() {
	lb.mu.Lock()
	if lb.running {
		lb.stopTick()
	}
	lb.running = false
	lb.mu.Unlock()
	// Drain any in-flight loop tick before returning.
	lb.tickMu.Lock()
	//lint:ignore SA2001 empty critical section intentionally waits out an in-flight tick
	lb.tickMu.Unlock()
}

// PlaceNow implements broker.Placer: the least-loaded placeable
// instance, private preferred so that load reverts to owned capacity
// naturally.
func (lb *LB) PlaceNow(service string) *cloud.Instance {
	var best *cloud.Instance
	score := func(in *cloud.Instance) float64 {
		s := float64(in.Sessions())
		if in.Kind() == cloud.Public {
			s += 0.5 // prefer private at equal load
		}
		return s
	}
	for _, in := range lb.cfg.Multi.Instances() {
		if !lb.placeable(in, service) {
			continue
		}
		if best == nil || score(in) < score(best) {
			best = in
		}
	}
	return best
}

func (lb *LB) isSuspect(id string) bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.suspectLocked(id)
}

func (lb *LB) suspectLocked(id string) bool {
	tr, ok := lb.tracks[id]
	return ok && tr.suspectTicks >= lb.cfg.SuspectTicks
}

// placeable reports whether in may take a new session for service: it
// runs, has room, hosts the service, and is neither suspect nor doomed.
// A doomed instance has a pending terminate retry; it is on its way out
// and must not receive new sessions.
func (lb *LB) placeable(in *cloud.Instance, service string) bool {
	if in.State() != cloud.StateRunning || in.Saturated() || !serves(in, service) {
		return false
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	_, doomed := lb.termRetries[in.ID()]
	return !doomed && !lb.suspectLocked(in.ID())
}

// serves reports whether an instance can host the service: streamlined
// bundles list their services; incubators accept anything.
func serves(in *cloud.Instance, service string) bool {
	img := in.Image()
	if img.Kind == cloud.Incubator {
		return true
	}
	for _, s := range img.Services {
		if s == service {
			return true
		}
	}
	return false
}

// Tick runs one control-loop iteration synchronously. Exposed so tests
// and experiments can drive the loop deterministically.
func (lb *LB) Tick() {
	lb.ticks.Inc()

	lb.observeHealth()
	lb.cfg.Multi.ProbeHealth()
	lb.retryTerminations()
	lb.replaceMalfunctioning()
	lb.cfg.Broker.AssignPending()
	lb.scaleUp()
	lb.rebalanceToPrivate()
	lb.scaleDown()
}

// observeHealth updates rolling per-instance health signals.
func (lb *LB) observeHealth() {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.observed++
	for _, in := range lb.cfg.Multi.Instances() {
		tr, ok := lb.tracks[in.ID()]
		if ok {
			tr.live = lb.observed
		}
		if in.State() != cloud.StateRunning {
			continue
		}
		if !ok {
			tr = &instanceTrack{live: lb.observed}
			lb.tracks[in.ID()] = tr
		}
		m := in.Snapshot()
		suspect := false
		if m.CPUUtil >= highCPUThreshold && m.Sessions < lb.cfg.Flavor.MaxSessions {
			// High CPU not explained by full session load.
			suspect = true
		}
		if tr.seen && m.NetInBytes > tr.lastNetIn && m.NetOutBytes == tr.lastNetOut {
			// Receiving but never responding.
			suspect = true
		}
		if suspect {
			tr.suspectTicks++
		} else {
			tr.suspectTicks = 0
		}
		if m.Sessions == 0 {
			tr.idleTicks++
		} else {
			tr.idleTicks = 0
		}
		tr.lastNetIn = m.NetInBytes
		tr.lastNetOut = m.NetOutBytes
		tr.seen = true
	}
	for id, tr := range lb.tracks {
		if tr.live != lb.observed {
			delete(lb.tracks, id)
		}
	}
}

// replaceMalfunctioning starts replacements for suspect instances and
// redirects their users. The in-flight replacement table dedupes the
// work: a suspect whose replacement is still booting, or whose Terminate
// keeps failing, is not given a second replacement on the next tick.
func (lb *LB) replaceMalfunctioning() {
	for _, in := range lb.cfg.Multi.Instances() {
		if in.State() != cloud.StateRunning || !lb.isSuspect(in.ID()) {
			continue
		}
		id := in.ID()
		sessions := lb.cfg.Broker.SessionsOn(id)

		// Register the suspect and decide whether a replacement launch is
		// still needed: none in flight, a previous launch failed, or the
		// in-flight replacement died before the suspect was retired.
		lb.mu.Lock()
		replID, tracked := lb.replacing[id]
		if !tracked {
			lb.replacing[id] = ""
			replID = ""
		}
		lb.mu.Unlock()
		needLaunch := len(sessions) > 0 && (replID == "" || !lb.instanceLive(replID))
		if needLaunch {
			// Launch a replacement; capacity may come from either cloud.
			repl, err := lb.cfg.Multi.Launch(lb.cfg.Image, lb.cfg.Flavor)
			if err == nil {
				lb.mu.Lock()
				lb.replacing[id] = repl.ID()
				lb.mu.Unlock()
				lb.record(actReplace, fmt.Sprintf("%s -> %s (%d sessions)", id, repl.ID(), len(sessions)))
			} else {
				lb.launchFailures.Inc()
				lb.record(actReplace, fmt.Sprintf("%s (replacement launch failed: %v)", id, err))
			}
		}
		// Redirect sessions to any healthy capacity available right now;
		// the rest fall back to pending and are assigned when the
		// replacement finishes booting.
		for _, s := range sessions {
			target := lb.PlaceNow(s.Service)
			if target == nil || target.ID() == id {
				lb.requeue(s.ID, id)
				continue
			}
			if err := lb.cfg.Broker.Migrate(s.ID, target, "instance "+id+" malfunctioning"); err != nil {
				lb.requeue(s.ID, id)
				continue
			}
			lb.record(actMigrate, s.ID+" off "+id)
		}
		lb.tryTerminate(id, "malfunctioning", false)
	}
}

// instanceLive reports whether an instance is still live (booting or
// running) on any provider.
func (lb *LB) instanceLive(id string) bool {
	for _, in := range lb.cfg.Multi.Instances() {
		if in.ID() == id && in.State() != cloud.StateTerminated {
			return true
		}
	}
	return false
}

// tryTerminate attempts a termination now, enqueueing a backoff retry on
// failure. It reports whether the instance is confirmed gone. An instance
// already queued for retry is left to the retry loop.
func (lb *LB) tryTerminate(id, reason string, idle bool) bool {
	lb.mu.Lock()
	if _, pending := lb.termRetries[id]; pending {
		lb.mu.Unlock()
		return false
	}
	lb.mu.Unlock()
	err := lb.cfg.Multi.Terminate(id)
	if err == nil || errors.Is(err, cloud.ErrNotFound) {
		lb.finishTerminate(id, reason, 0)
		return true
	}
	lb.mu.Lock()
	lb.terminateFailures.Inc()
	lb.termRetries[id] = &termRetry{
		attempts: 1,
		nextAt:   lb.cfg.Clock.Now().Add(terminateDelay(lb.cfg.Interval, 0)),
		reason:   reason,
		idle:     idle,
	}
	lb.mu.Unlock()
	lb.record(actTerminateFailed, fmt.Sprintf("%s (%s, attempt 1): %v", id, reason, err))
	return false
}

// finishTerminate records a confirmed termination and clears the
// instance's retry and replacement bookkeeping.
func (lb *LB) finishTerminate(id, reason string, attempts int) {
	detail := id + " (" + reason + ")"
	if attempts > 0 {
		detail += fmt.Sprintf(" after %d failed attempts", attempts)
	}
	lb.record(actTerminate, detail)
	lb.mu.Lock()
	if attempts > 0 {
		lb.recoveredTerminations.Inc()
	}
	delete(lb.termRetries, id)
	if _, wasSuspect := lb.replacing[id]; wasSuspect {
		delete(lb.replacing, id)
		lb.replaced.Inc()
	}
	lb.mu.Unlock()
}

// retryTerminations drains due entries from the terminate-retry queue, in
// instance-ID order for determinism. Idle-reclaim terminations are
// cancelled if the instance picked up sessions while the retry was
// pending.
func (lb *LB) retryTerminations() {
	now := lb.cfg.Clock.Now()
	lb.mu.Lock()
	due := make([]string, 0, len(lb.termRetries))
	for id, e := range lb.termRetries {
		if !e.nextAt.After(now) {
			due = append(due, id)
		}
	}
	lb.mu.Unlock()
	sort.Strings(due)
	for _, id := range due {
		lb.mu.Lock()
		e, ok := lb.termRetries[id]
		lb.mu.Unlock()
		if !ok {
			continue
		}
		if e.idle && len(lb.cfg.Broker.SessionsOn(id)) > 0 {
			lb.mu.Lock()
			delete(lb.termRetries, id)
			lb.mu.Unlock()
			lb.record(actTerminateCancelled, id+" (regained sessions while idle-reclaim was retrying)")
			continue
		}
		lb.terminateRetries.Inc()
		err := lb.cfg.Multi.Terminate(id)
		if err == nil || errors.Is(err, cloud.ErrNotFound) {
			lb.finishTerminate(id, e.reason, e.attempts)
			continue
		}
		lb.mu.Lock()
		lb.terminateFailures.Inc()
		e.attempts++
		e.nextAt = now.Add(terminateDelay(lb.cfg.Interval, e.attempts-1))
		attempts := e.attempts
		lb.mu.Unlock()
		lb.record(actTerminateFailed, fmt.Sprintf("%s (%s, attempt %d): %v", id, e.reason, attempts, err))
	}
}

// requeue returns a session to the broker's pending queue when no healthy
// capacity can take it right now; it is reassigned once the replacement
// instance finishes booting.
func (lb *LB) requeue(sessionID, badInstance string) {
	if err := lb.cfg.Broker.Suspend(sessionID, "instance "+badInstance+" malfunctioning"); err == nil {
		lb.record(actSuspend, sessionID+" (waiting for replacement of "+badInstance+")")
	}
}

// scaleUp launches enough instances to cover pending sessions (beyond
// what is already booting) and the warm floor.
func (lb *LB) scaleUp() {
	pending := lb.cfg.Broker.PendingCount()
	bootingCapacity := 0
	running := 0
	for _, in := range lb.cfg.Multi.Instances() {
		switch in.State() {
		case cloud.StateBooting:
			bootingCapacity += lb.cfg.Flavor.MaxSessions
		case cloud.StateRunning:
			running++
		}
	}
	need := 0
	if pending > bootingCapacity {
		need = int(math.Ceil(float64(pending-bootingCapacity) / float64(lb.cfg.Flavor.MaxSessions)))
	}
	// Warm floor counts all live instances.
	if total := len(lb.cfg.Multi.Instances()); total+need < lb.cfg.MinInstances {
		need = lb.cfg.MinInstances - total
	}
	for i := 0; i < need; i++ {
		inst, err := lb.cfg.Multi.Launch(lb.cfg.Image, lb.cfg.Flavor)
		if err != nil {
			// Pending sessions stay queued; the next tick retries (the
			// interval is the retry cadence, breakers gate providers).
			lb.launchFailures.Inc()
			lb.record(actLaunch, "failed: "+err.Error())
			return
		}
		lb.record(actLaunch, inst.ID()+" ("+inst.Kind().String()+")")
	}
}

// rebalanceToPrivate migrates sessions from public instances back to free
// private capacity — the reversal of cloudbursting.
func (lb *LB) rebalanceToPrivate() {
	for _, in := range lb.cfg.Multi.Instances() {
		if in.Kind() != cloud.Public || in.State() != cloud.StateRunning {
			continue
		}
		for _, s := range lb.cfg.Broker.SessionsOn(in.ID()) {
			target := lb.privateSlot(s.Service)
			if target == nil {
				return // no private capacity left at all
			}
			if err := lb.cfg.Broker.Migrate(s.ID, target, "rebalancing to private cloud"); err != nil {
				continue
			}
			lb.record(actMigrate, s.ID+" back to "+target.ID())
		}
	}
}

// privateSlot is the first placeable private instance, or nil.
func (lb *LB) privateSlot(service string) *cloud.Instance {
	for _, in := range lb.cfg.Multi.Instances() {
		if in.Kind() == cloud.Private && lb.placeable(in, service) {
			return in
		}
	}
	return nil
}

// scaleDown reclaims instances idle for reclaimIdleTicks consecutive ticks,
// public first (cost), respecting the warm floor.
func (lb *LB) scaleDown() {
	instances := lb.cfg.Multi.Instances()
	total := len(instances)
	// A public pass, then a private one.
	for _, kind := range [...]cloud.ProviderKind{cloud.Public, cloud.Private} {
		for _, in := range instances {
			if in.Kind() != kind {
				continue
			}
			if total <= lb.cfg.MinInstances {
				return
			}
			if in.State() != cloud.StateRunning || in.Sessions() > 0 {
				continue
			}
			lb.mu.Lock()
			tr := lb.tracks[in.ID()]
			idle := tr != nil && tr.idleTicks >= reclaimIdleTicks
			lb.mu.Unlock()
			if !idle {
				continue
			}
			if lb.tryTerminate(in.ID(), "idle "+kind.String(), true) {
				total--
			}
		}
	}
}

// record counts one management action and logs it, overwriting the
// oldest event once the log holds maxEvents.
func (lb *LB) record(action int, detail string) {
	lb.actions[action].Inc()
	e := Event{At: lb.cfg.Clock.Now(), Action: actionNames[action], Detail: detail}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(lb.events) < maxEvents {
		lb.events = append(lb.events, e)
		return
	}
	lb.events[lb.oldest] = e
	lb.oldest = (lb.oldest + 1) % maxEvents
}

// Events returns a copy of the event log's newest events, oldest first.
func (lb *LB) Events() []Event {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make([]Event, 0, len(lb.events))
	out = append(out, lb.events[lb.oldest:]...)
	return append(out, lb.events[:lb.oldest]...)
}

// Ticks returns how many control iterations have run.
func (lb *LB) Ticks() int {
	return int(lb.ticks.Value())
}

// Replaced returns how many malfunctioning instances were replaced.
func (lb *LB) Replaced() int {
	return int(lb.replaced.Value())
}
