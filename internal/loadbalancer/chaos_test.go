package loadbalancer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/resilience"
)

// faultyHarness is the chaos-test rig: the same topology as harness, but
// with both providers wrapped in seeded FaultyProviders so tests can
// inject control-plane faults deterministically.
type faultyHarness struct {
	clk     *clock.Simulated
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
	brk, err := broker.New(clk, broker.Options{})
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	cfg := Config{
		Multi: multi, Broker: brk, Clock: clk,
		Image: testImage(), Flavor: smallFlavor(),
		Interval: 10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	lb, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &faultyHarness{
		clk: clk, private: private, public: public,
		fpriv: fpriv, fpub: fpub, multi: multi, brk: brk, lb: lb,
	}
}

func (h *faultyHarness) settle(n int) {
	for i := 0; i < n; i++ {
		h.clk.Advance(45 * time.Second)
		h.lb.Tick()
	}
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
	st := h.lb.Stats()
	if st.InFlightReplacements != 1 || st.OutstandingTerminations != 1 {
		t.Fatalf("stats during fault = %+v, want 1 in-flight replacement and 1 outstanding termination", st)
	}
	if st.TerminateFailures == 0 {
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
	st = h.lb.Stats()
	if st.InFlightReplacements != 0 || st.OutstandingTerminations != 0 {
		t.Fatalf("stats after heal = %+v, want clean tables", st)
	}
	if h.lb.Replaced() != 1 {
		t.Fatalf("replaced = %d, want 1", h.lb.Replaced())
	}
	if st.RecoveredTerminations != 1 {
		t.Fatalf("recovered terminations = %d, want 1", st.RecoveredTerminations)
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

	st := h.lb.Stats()
	if st.TerminateFailures == 0 || st.OutstandingTerminations == 0 {
		t.Fatalf("stats during fault = %+v, want failed terminations outstanding", st)
	}
	if countEvents(h.lb.Events(), "terminate-failed", "idle") == 0 {
		t.Fatal("no terminate-failed event recorded for idle reclaim")
	}
	// Doomed instances are fenced off from placement.
	if in := h.lb.PlaceNow("topmodel"); in != nil && h.lb.isDoomed(in.ID()) {
		t.Fatalf("PlaceNow returned doomed instance %s", in.ID())
	}

	h.fpriv.SetErrorRates(0, 0, 0)
	h.settle(8)
	st = h.lb.Stats()
	if st.OutstandingTerminations != 0 {
		t.Fatalf("outstanding terminations after heal = %d, want 0", st.OutstandingTerminations)
	}
	if st.RecoveredTerminations == 0 {
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
	if !h.lb.isDoomed(extra.ID()) {
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

	if h.brk.SuspendedCount() != 1 || h.brk.SuspendedTotal() != 1 {
		t.Fatalf("suspended count/total = %d/%d, want 1/1",
			h.brk.SuspendedCount(), h.brk.SuspendedTotal())
	}
	if st := h.lb.Stats(); st.LaunchFailures == 0 {
		t.Fatalf("launch failures = %d, want >0 during fault window", st.LaunchFailures)
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
	stats      Stats
	failovers  int
	breakers   map[string]string
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
		FailureThreshold: 3, OpenTimeout: 2 * time.Minute, Clock: h.clk,
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

	breakers := make(map[string]string)
	for _, ph := range h.multi.Health() {
		breakers[ph.Name] = ph.Breaker
	}
	return h, chaosOutcome{
		sessions:   ids,
		victimID:   victim.ID(),
		events:     h.lb.Events(),
		stats:      h.lb.Stats(),
		failovers:  h.multi.Failovers(),
		breakers:   breakers,
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
	if h.brk.SuspendedTotal() == 0 {
		t.Fatal("no suspension ever recorded: the scenario lost its storm")
	}
	st := out.stats
	if st.OutstandingTerminations != 0 || st.InFlightReplacements != 0 {
		t.Fatalf("stats = %+v, want no outstanding terminations or replacements", st)
	}
	if st.TerminateFailures == 0 || st.RecoveredTerminations == 0 {
		t.Fatalf("stats = %+v, want terminate failures that were later recovered", st)
	}
	if out.failovers == 0 {
		t.Fatal("no cross-provider failover recorded during the outage")
	}
	for name, state := range out.breakers {
		if state != "closed" {
			t.Fatalf("breaker %s = %s after recovery, want closed", name, state)
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
// entire observable outcome — event log with timestamps, robustness stats,
// breaker states, fault streams — to be identical run over run.
func TestChaosScenarioDeterministic(t *testing.T) {
	_, a := runChaosScenario(t)
	_, b := runChaosScenario(t)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("event logs diverged:\nrun1: %d events\nrun2: %d events", len(a.events), len(b.events))
	}
	if a.stats != b.stats {
		t.Fatalf("stats diverged:\nrun1: %+v\nrun2: %+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.breakers, b.breakers) || a.failovers != b.failovers {
		t.Fatalf("breaker/failover outcomes diverged: %v/%d vs %v/%d",
			a.breakers, a.failovers, b.breakers, b.failovers)
	}
	if a.privFaults != b.privFaults || a.pubFaults != b.pubFaults {
		t.Fatalf("fault streams diverged:\nrun1: %+v %+v\nrun2: %+v %+v",
			a.privFaults, a.pubFaults, b.privFaults, b.pubFaults)
	}
}
