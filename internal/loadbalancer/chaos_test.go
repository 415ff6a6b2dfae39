package loadbalancer

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/metrics"
	"evop/internal/resilience"
)

// faultyHarness is the chaos-test rig: the same topology as harness, but
// with both providers wrapped in seeded FaultyProviders so tests can
// inject control-plane faults deterministically, and every component
// recording into one registry.
type faultyHarness struct {
	t       *testing.T
	clk     *clock.Simulated
	reg     *metrics.Registry
	private *cloud.SimProvider
	public  *cloud.SimProvider
	fpriv   *cloud.FaultyProvider
	fpub    *cloud.FaultyProvider
	multi   *crosscloud.Multi
	brk     *broker.Broker
	lb      *LB
}

func newFaultyHarness(t *testing.T, privateMax int, mutate func(*Config)) *faultyHarness {
	t.Helper()
	clk := clock.NewSimulated(epoch)
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: privateMax,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("private: %v", err)
	}
	public, err := cloud.NewProvider(cloud.Config{
		Name: "aws", Kind: cloud.Public, MaxInstances: -1,
		BootDelay: 90 * time.Second, AddrPrefix: "54.0.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("public: %v", err)
	}
	fpriv, err := cloud.NewFaultyProvider(private, clk, cloud.FaultSpec{Seed: 41})
	if err != nil {
		t.Fatalf("faulty private: %v", err)
	}
	fpub, err := cloud.NewFaultyProvider(public, clk, cloud.FaultSpec{Seed: 42})
	if err != nil {
		t.Fatalf("faulty public: %v", err)
	}
	multi, err := crosscloud.New(crosscloud.PrivateFirst{}, fpriv, fpub)
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	reg := metrics.NewRegistry(clk)
	brk, err := broker.New(clk, reg)
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	cfg := Config{
		Multi: multi, Broker: brk, Clock: clk,
		Image: testImage(), Flavor: smallFlavor(),
		Interval: 10 * time.Second, Metrics: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	lb, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &faultyHarness{
		t: t, clk: clk, reg: reg, private: private, public: public,
		fpriv: fpriv, fpub: fpub, multi: multi, brk: brk, lb: lb,
	}
}

// settle runs n LB ticks with boot-completing time in between, and
// checks the published fence after each.
func (h *faultyHarness) settle(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.clk.Advance(45 * time.Second)
		h.lb.Tick()
		h.checkFenced()
	}
}

// checkFenced requires the set PlaceNow skips to equal the suspect
// tracks plus the retry-queue keys, and to be published as nil when
// empty.
func (h *faultyHarness) checkFenced() {
	h.t.Helper()
	lb := h.lb
	lb.mu.Lock()
	defer lb.mu.Unlock()
	want := make(map[string]struct{})
	for id, tr := range lb.tracks {
		if tr.suspectTicks >= lb.cfg.SuspectTicks {
			want[id] = struct{}{}
		}
	}
	for id := range lb.termRetries {
		want[id] = struct{}{}
	}
	var got map[string]struct{}
	if p := lb.fenced.Load(); p != nil {
		if len(*p) == 0 {
			h.t.Fatal("an empty fenced set was published as non-nil")
		}
		got = *p
	}
	if !maps.Equal(got, want) {
		h.t.Fatalf("published fenced set %v, want %v", got, want)
	}
}

// series indexes the rig's registry snapshot by series ID. A histogram
// contributes its count: its sum is wall-clock time (push publish
// latency), which no seed replays.
func (h *faultyHarness) series() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range h.reg.Snapshot().Metrics {
		v := m.Value
		if m.Histogram != nil {
			v = float64(m.Histogram.Count)
		}
		out[m.SeriesID()] = v
	}
	return out
}

// doomed reports whether id has a pending terminate retry, read under
// the LB's mutex.
func (lb *LB) doomed(id string) bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	_, pending := lb.termRetries[id]
	return pending
}

func countEvents(events []Event, action, detailSubstr string) int {
	n := 0
	for _, e := range events {
		if e.Action == action && strings.Contains(e.Detail, detailSubstr) {
			n++
		}
	}
	return n
}

// TestFaultyTerminateNoReplacementStorm is the regression test for the
// replacement storm: when a suspect instance's Terminate keeps failing, the
// LB used to treat it as "still malfunctioning" on every tick and launch a
// fresh replacement each time. The in-flight replacement table must hold a
// single replacement while the terminate is retried, and confirm the
// replacement only once the suspect is really gone.
func TestFaultyTerminateNoReplacementStorm(t *testing.T) {
	h := newFaultyHarness(t, 4, nil)
	h.settle(2)
	s, err := h.brk.Connect("victim", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	got, _ := h.brk.Session(s.ID)
	bad, err := h.private.Get(got.InstanceID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}

	// Every private Terminate now fails; then the instance breaks.
	h.fpriv.SetErrorRates(0, 1, 0)
	bad.Inject(cloud.StuckCPU)
	h.settle(6) // detection + replacement + repeated terminate failures

	if n := countEvents(h.lb.Events(), "replace", "->"); n != 1 {
		t.Fatalf("replacement launches = %d, want exactly 1 (storm!)", n)
	}
	st := h.series()
	if st["evop_lb_inflight_replacements"] != 1 || st["evop_lb_outstanding_terminations"] != 1 {
		t.Fatalf("in-flight replacements/outstanding terminations during fault = %v/%v, want 1/1",
			st["evop_lb_inflight_replacements"], st["evop_lb_outstanding_terminations"])
	}
	if st["evop_lb_terminate_failures_total"] == 0 {
		t.Fatal("terminate failures not counted")
	}
	if h.lb.Replaced() != 0 {
		t.Fatal("replacement confirmed while the suspect is still running")
	}
	if bad.State() == cloud.StateTerminated {
		t.Fatal("suspect terminated despite injected terminate faults")
	}
	// The victim's session was still rescued onto the (single) replacement.
	after, _ := h.brk.Session(s.ID)
	if after.State != broker.Active || after.InstanceID == bad.ID() {
		t.Fatalf("session = %+v, want active off %s", after, bad.ID())
	}

	// Control plane heals: the queued retry reclaims the suspect.
	h.fpriv.SetErrorRates(0, 0, 0)
	h.settle(6)
	if bad.State() != cloud.StateTerminated {
		t.Fatalf("suspect state after heal = %v, want terminated", bad.State())
	}
	st = h.series()
	if st["evop_lb_inflight_replacements"] != 0 || st["evop_lb_outstanding_terminations"] != 0 {
		t.Fatalf("in-flight replacements/outstanding terminations after heal = %v/%v, want clean tables",
			st["evop_lb_inflight_replacements"], st["evop_lb_outstanding_terminations"])
	}
	if h.lb.Replaced() != 1 {
		t.Fatalf("replaced = %d, want 1", h.lb.Replaced())
	}
	if got := st["evop_lb_recovered_terminations_total"]; got != 1 {
		t.Fatalf("recovered terminations = %v, want 1", got)
	}
	if countEvents(h.lb.Events(), "terminate", "failed attempts") != 1 {
		t.Fatal("recovered termination not recorded with its attempt count")
	}
}

// TestFaultyIdleTerminateRetriedNotLeaked is the regression test for the
// silent cost leak: scale-down Terminate errors used to be dropped
// (`if err == nil` with no else), leaving the instance running and billed
// forever. Failures must be recorded, retried with backoff and eventually
// recovered.
func TestFaultyIdleTerminateRetriedNotLeaked(t *testing.T) {
	h := newFaultyHarness(t, 4, nil)
	h.settle(2)
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := h.brk.Connect("user", "topmodel")
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		ids = append(ids, s.ID)
	}
	h.settle(4) // second instance boots and binds
	if got := len(h.multi.Instances()); got < 2 {
		t.Fatalf("instances = %d, want >=2 before drain", got)
	}

	h.fpriv.SetErrorRates(0, 1, 0)
	for _, id := range ids {
		if err := h.brk.Disconnect(id); err != nil {
			t.Fatalf("Disconnect: %v", err)
		}
	}
	h.settle(6) // idle detection + failing terminations

	st := h.series()
	if st["evop_lb_terminate_failures_total"] == 0 || st["evop_lb_outstanding_terminations"] == 0 {
		t.Fatalf("terminate failures/outstanding = %v/%v, want failed terminations outstanding",
			st["evop_lb_terminate_failures_total"], st["evop_lb_outstanding_terminations"])
	}
	if countEvents(h.lb.Events(), "terminate-failed", "idle") == 0 {
		t.Fatal("no terminate-failed event recorded for idle reclaim")
	}
	// Doomed instances are fenced off from placement.
	if in := h.lb.PlaceNow("topmodel"); in != nil && h.lb.doomed(in.ID()) {
		t.Fatalf("PlaceNow returned doomed instance %s", in.ID())
	}

	h.fpriv.SetErrorRates(0, 0, 0)
	h.settle(8)
	st = h.series()
	if got := st["evop_lb_outstanding_terminations"]; got != 0 {
		t.Fatalf("outstanding terminations after heal = %v, want 0", got)
	}
	if st["evop_lb_recovered_terminations_total"] == 0 {
		t.Fatal("no termination recorded as recovered")
	}
	if got := len(h.multi.Instances()); got != 1 {
		t.Fatalf("instances after heal = %d, want warm floor 1 (leak)", got)
	}
}

// TestFaultyIdleTerminateCancelledOnReuse checks the idle-reclaim guard: a
// pending terminate retry is cancelled when the instance regains sessions
// while the retry is queued, instead of killing a now-busy instance.
func TestFaultyIdleTerminateCancelledOnReuse(t *testing.T) {
	h := newFaultyHarness(t, 4, func(c *Config) { c.MinInstances = 2 })
	h.settle(3) // two warm instances
	s, err := h.brk.Connect("user", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	h.settle(1)

	// Force an extra instance up, drain it, and let its terminate fail.
	extra, err := h.multi.Launch(testImage(), smallFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	h.fpriv.SetErrorRates(0, 1, 0)
	h.settle(6) // extra goes idle; scale-down terminate fails and queues
	if !h.lb.doomed(extra.ID()) {
		t.Skipf("extra instance %s not queued for terminate retry", extra.ID())
	}

	// The doomed instance picks the session back up before the retry lands.
	if err := h.brk.Migrate(s.ID, extra, "test: rebind onto doomed"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	h.settle(2)
	if countEvents(h.lb.Events(), "terminate-cancelled", extra.ID()) == 0 {
		t.Fatal("idle terminate retry not cancelled after instance regained sessions")
	}
	if extra.State() != cloud.StateRunning {
		t.Fatalf("busy instance state = %v, want running", extra.State())
	}
}

// TestFaultyRebalanceSkipsDoomedPrivate: a private instance with room
// whose terminate retry is pending takes no session when public
// sessions are rebalanced home, as PlaceNow gives it none.
func TestFaultyRebalanceSkipsDoomedPrivate(t *testing.T) {
	h := newFaultyHarness(t, 2, nil) // private fits 2 instances x 2 sessions
	h.settle(2)
	var ids []string
	for i := 0; i < 5; i++ {
		s, err := h.brk.Connect("user", "topmodel")
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		ids = append(ids, s.ID)
	}
	h.settle(4) // private saturates, the fifth session bursts to public
	var doomed *cloud.Instance
	var public []string
	for _, id := range ids {
		s, err := h.brk.Session(id)
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		if _, err := h.public.Get(s.InstanceID); err == nil {
			public = append(public, id)
			continue
		}
		in, err := h.private.Get(s.InstanceID)
		if err != nil {
			t.Fatalf("session %s on %q: %v", id, s.InstanceID, err)
		}
		if doomed == nil {
			// Free a slot on this private instance, then doom it.
			if err := h.brk.Disconnect(id); err != nil {
				t.Fatalf("Disconnect: %v", err)
			}
			doomed = in
		}
	}
	if len(public) != 1 || doomed == nil {
		t.Fatalf("public sessions = %d, doomed private = %v; want 1 and one", len(public), doomed)
	}
	h.fpriv.SetErrorRates(0, 1, 0)
	if h.lb.tryTerminate(doomed.ID(), "test", false) || !h.lb.doomed(doomed.ID()) {
		t.Fatalf("%s not queued for terminate retry", doomed.ID())
	}

	h.lb.rebalanceToPrivate()
	if got := len(h.brk.SessionsOn(doomed.ID())); got != 1 {
		t.Fatalf("doomed %s hosts %d sessions after rebalance, want 1", doomed.ID(), got)
	}
	if s, _ := h.brk.Session(public[0]); s.InstanceID == doomed.ID() {
		t.Fatalf("public session %s moved onto doomed %s", s.ID, doomed.ID())
	}
}

// TestFaultySuspendResumeUnderLaunchFaults covers the suspend→resume arc
// end to end under control-plane faults: a malfunctioning instance with no
// spare capacity suspends its session (UpdateSuspended reaches the
// subscriber), replacement launches fail for a while, and once the control
// plane heals the session is rebound and the redirect push arrives.
func TestFaultySuspendResumeUnderLaunchFaults(t *testing.T) {
	h := newFaultyHarness(t, 1, nil) // one private slot pair, nothing spare
	h.settle(2)
	s, err := h.brk.Connect("victim", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	ch, err := h.brk.Subscribe(s.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	got, _ := h.brk.Session(s.ID)
	bad, err := h.private.Get(got.InstanceID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}

	// Every launch everywhere fails, then the instance breaks: the session
	// must be suspended, not dropped, while replacements cannot boot.
	h.fpriv.SetErrorRates(1, 0, 0)
	h.fpub.SetErrorRates(1, 0, 0)
	bad.Inject(cloud.StuckCPU)
	h.settle(6)

	st := h.series()
	if h.brk.SuspendedCount() != 1 || st["evop_broker_sessions_suspended_total"] != 1 {
		t.Fatalf("suspended count/total = %d/%v, want 1/1",
			h.brk.SuspendedCount(), st["evop_broker_sessions_suspended_total"])
	}
	if st["evop_lb_launch_failures_total"] == 0 {
		t.Fatal("no launch failures counted during the fault window")
	}
	u := <-ch
	if u.Kind != broker.UpdateSuspended || u.Session.InstanceAddr != "" {
		t.Fatalf("first push = %+v, want suspended with no instance", u)
	}

	// Control plane heals: the next ticks launch capacity and resume.
	h.fpriv.SetErrorRates(0, 0, 0)
	h.fpub.SetErrorRates(0, 0, 0)
	h.settle(6)

	if h.brk.SuspendedCount() != 0 {
		t.Fatalf("suspended count after heal = %d, want 0", h.brk.SuspendedCount())
	}
	after, _ := h.brk.Session(s.ID)
	if after.State != broker.Active || after.InstanceID == bad.ID() {
		t.Fatalf("session after heal = %+v, want active off %s", after, bad.ID())
	}
	u = <-ch
	if u.Kind != broker.UpdateAssigned || u.Session.InstanceAddr != after.InstanceAddr {
		t.Fatalf("resume push = %+v, want assigned on %s", u, after.InstanceAddr)
	}
}

// chaosOutcome captures everything observable after a chaos scenario, so a
// second run under the same seed can be compared field by field.
type chaosOutcome struct {
	sessions   []string
	victimID   string
	events     []Event
	series     map[string]float64
	privFaults cloud.FaultStats
	pubFaults  cloud.FaultStats
}

// runChaosScenario drives the canonical failure story on a seeded rig:
// steady state on the private cloud → private control-plane outage with 20%
// transient faults everywhere → an instance malfunction and a new user
// arriving mid-outage (forcing failover and cloudburst to public) → full
// heal. The caller asserts on convergence.
func runChaosScenario(t *testing.T) (*faultyHarness, chaosOutcome) {
	t.Helper()
	h := newFaultyHarness(t, 2, nil)
	if err := h.multi.EnableBreakers(resilience.BreakerConfig{
		FailureThreshold: 3, OpenTimeout: 2 * time.Minute, Clock: h.clk, Metrics: h.reg,
	}); err != nil {
		t.Fatalf("EnableBreakers: %v", err)
	}
	h.settle(2)

	var ids []string
	for i := 0; i < 3; i++ {
		s, err := h.brk.Connect("user", "topmodel")
		if err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
		ids = append(ids, s.ID)
	}
	h.settle(4) // second private instance boots; everyone bound

	// The storm: private control plane goes dark for 5 minutes, both clouds
	// turn 20% flaky, and the half-loaded instance serving the third user
	// wedges. (A fully loaded instance at high CPU is explained by load and
	// deliberately not suspect, so the victim must be the partial one.)
	got, err := h.brk.Session(ids[2])
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	victim, err := h.private.Get(got.InstanceID)
	if err != nil {
		t.Fatalf("victim lookup: %v", err)
	}
	h.fpriv.SetErrorRates(0.2, 0.2, 0)
	h.fpub.SetErrorRates(0.2, 0.2, 0)
	h.fpriv.ScheduleOutage(h.clk.Now(), 5*time.Minute)
	victim.Inject(cloud.StuckCPU)
	h.settle(3)

	// Mid-outage arrival: private cannot launch, so this must cloudburst.
	late, err := h.brk.Connect("late-user", "topmodel")
	if err != nil {
		t.Fatalf("Connect late: %v", err)
	}
	ids = append(ids, late.ID)
	h.settle(4) // the outage window closes during these ticks

	// Cloudburst-plus-flash-crowd: while the burst is still absorbing the
	// outage, a crowd of users arrives inside a single tick — the widened
	// circle of engagement showing up exactly when capacity is scarcest.
	// All of them must eventually be served on public capacity.
	for i := 0; i < 8; i++ {
		s, err := h.brk.Connect(fmt.Sprintf("crowd-%02d", i), "topmodel")
		if err != nil {
			t.Fatalf("Connect crowd %d: %v", i, err)
		}
		ids = append(ids, s.ID)
	}
	h.settle(4)

	// Full heal, then time to converge: probes close the breaker, queued
	// terminations drain, suspended sessions rebind.
	h.fpriv.SetErrorRates(0, 0, 0)
	h.fpub.SetErrorRates(0, 0, 0)
	h.settle(16)

	return h, chaosOutcome{
		sessions:   ids,
		victimID:   victim.ID(),
		events:     h.lb.Events(),
		series:     h.series(),
		privFaults: h.fpriv.Stats(),
		pubFaults:  h.fpub.Stats(),
	}
}

// TestChaosOutageCloudburstRecovery is the acceptance scenario: after a
// private-cloud outage with transient faults and a malfunction, the system
// must converge — every session served, nobody suspended, no termination
// outstanding, no replacement dangling, and every breaker closed again.
func TestChaosOutageCloudburstRecovery(t *testing.T) {
	h, out := runChaosScenario(t)

	running := make(map[string]bool)
	for _, in := range h.multi.Instances() {
		if in.State() == cloud.StateRunning {
			running[in.ID()] = true
		}
	}
	for _, id := range out.sessions {
		s, err := h.brk.Session(id)
		if err != nil {
			t.Fatalf("session %s vanished: %v", id, err)
		}
		if s.State != broker.Active {
			t.Fatalf("session %s state = %v, want active after recovery", id, s.State)
		}
		if !running[s.InstanceID] {
			t.Fatalf("session %s bound to non-running instance %s", id, s.InstanceID)
		}
	}
	if n := h.brk.SuspendedCount(); n != 0 {
		t.Fatalf("suspended sessions after recovery = %d, want 0", n)
	}
	st := out.series
	if st["evop_broker_sessions_suspended_total"] == 0 {
		t.Fatal("no suspension ever recorded: the scenario lost its storm")
	}
	if st["evop_lb_outstanding_terminations"] != 0 || st["evop_lb_inflight_replacements"] != 0 {
		t.Fatalf("outstanding terminations/in-flight replacements = %v/%v, want none",
			st["evop_lb_outstanding_terminations"], st["evop_lb_inflight_replacements"])
	}
	if st["evop_lb_terminate_failures_total"] == 0 || st["evop_lb_recovered_terminations_total"] == 0 {
		t.Fatalf("terminate failures/recovered = %v/%v, want failures that were later recovered",
			st["evop_lb_terminate_failures_total"], st["evop_lb_recovered_terminations_total"])
	}
	if st["evop_cloud_failovers_total"] == 0 {
		t.Fatal("no cross-provider failover recorded during the outage")
	}
	for _, name := range []string{"openstack", "aws"} {
		if state := st[`evop_breaker_state{name="`+name+`"}`]; state != 0 {
			t.Fatalf("breaker %s state = %v after recovery, want 0 (closed)", name, state)
		}
	}
	// The victim is really gone, and the burst actually touched the public
	// cloud at some point.
	if victimState := func() cloud.InstanceState {
		in, err := h.private.Get(out.victimID)
		if err != nil {
			return cloud.StateTerminated
		}
		return in.State()
	}(); victimState != cloud.StateTerminated {
		t.Fatalf("victim state = %v, want terminated", victimState)
	}
	if countEvents(out.events, "launch", "(public)") == 0 &&
		countEvents(out.events, "replace", "") == 0 {
		t.Fatal("no public launch or replacement recorded: no cloudburst happened")
	}
	// The flash crowd needed more public capacity than the lone late user:
	// at least two public launches, or the crowd rode a burst that never
	// scaled.
	if n := countEvents(out.events, "launch", "(public)"); n < 2 {
		t.Fatalf("public launches = %d, want >=2 for the flash crowd", n)
	}
	if out.privFaults.Outages == 0 {
		t.Fatal("outage window injected no faults: scenario timing is off")
	}
}

// TestChaosScenarioDeterministic replays the scenario and requires the
// entire observable outcome — event log with timestamps, every registry
// series (LB, broker, push hub, breakers, cloud façade), fault streams —
// to be identical run over run.
func TestChaosScenarioDeterministic(t *testing.T) {
	_, a := runChaosScenario(t)
	_, b := runChaosScenario(t)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("event logs diverged:\nrun1: %d events\nrun2: %d events", len(a.events), len(b.events))
	}
	if !reflect.DeepEqual(a.series, b.series) {
		for id, v := range a.series {
			if w, ok := b.series[id]; !ok || w != v {
				t.Errorf("series %s diverged: run1 %v, run2 %v (present %v)", id, v, w, ok)
			}
		}
		t.Fatalf("registry snapshots diverged: %d vs %d series", len(a.series), len(b.series))
	}
	if a.privFaults != b.privFaults || a.pubFaults != b.pubFaults {
		t.Fatalf("fault streams diverged:\nrun1: %+v %+v\nrun2: %+v %+v",
			a.privFaults, a.pubFaults, b.privFaults, b.pubFaults)
	}
}

// TestChaosSnapshotReaders reads the shared instance lists from other
// goroutines — placement, the joined list and the per-kind count — while
// the control loop bursts, replaces a malfunctioning instance and
// reclaims idle ones. Each list a reader takes must stay element-for-element
// unchanged while it is read; under -race this also checks that
// publishing a list never races with reading one.
func TestChaosSnapshotReaders(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.settle(2)

	stop := make(chan struct{})
	errs := make(chan error, 3) // at most one per reader
	var wg sync.WaitGroup
	halted := false
	halt := func() {
		if !halted {
			halted = true
			close(stop)
			wg.Wait()
		}
	}
	defer halt()
	read := func(name string, f func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			list := h.multi.Instances()
			want := append([]*cloud.Instance(nil), list...)
			seen := make(map[string]bool, len(list))
			for _, in := range list {
				if in == nil || seen[in.ID()] {
					errs <- fmt.Errorf("%s: list %v holds a nil or repeated instance", name, want)
					return
				}
				seen[in.ID()] = true
				_ = in.State()
			}
			f()
			for i := range list {
				if list[i] != want[i] {
					errs <- fmt.Errorf("%s: list changed at [%d] while read", name, i)
					return
				}
			}
		}
	}
	wg.Add(3)
	go read("placer", func() { h.lb.PlaceNow("topmodel") })
	go read("counter", func() { h.multi.CountByKind() })
	go read("provider", func() { _ = h.public.Instances() })

	var open []string
	var victim *cloud.Instance
	for round := 0; round < 24; round++ {
		switch {
		case round < 8: // a crowd arrives and bursts to public
			s, err := h.brk.Connect(fmt.Sprintf("user-%02d", round), "topmodel")
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			open = append(open, s.ID)
		case round == 8: // a private instance stops answering
			victim = h.private.Instances()[0]
			victim.Inject(cloud.SilentNIC)
		case len(open) > 0: // and the crowd drains away again
			if err := h.brk.Disconnect(open[0]); err != nil {
				t.Fatalf("Disconnect: %v", err)
			}
			open = open[1:]
		}
		if victim != nil {
			_ = victim.ServeRequest(512, 2048) // fails once it is replaced
		}
		h.settle(1)
	}
	halt()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	events := h.lb.Events()
	if countEvents(events, "launch", "(public)") == 0 || countEvents(events, "replace", "") == 0 ||
		countEvents(events, "terminate", "") == 0 {
		t.Fatalf("the loop did not burst, replace and reclaim: %d events", len(events))
	}
}
