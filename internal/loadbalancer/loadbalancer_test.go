package loadbalancer

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

type harness struct {
	clk     *clock.Simulated
	private *cloud.SimProvider
	public  *cloud.SimProvider
	multi   *crosscloud.Multi
	brk     *broker.Broker
	lb      *LB
}

func testImage() cloud.Image {
	return cloud.Image{ID: "topmodel-v1", Kind: cloud.Streamlined, Services: []string{"topmodel"}}
}

func smallFlavor() cloud.Flavor {
	return cloud.Flavor{Name: "t.small", VCPUs: 1, MemoryGB: 2, CostPerHour: 0.10, MaxSessions: 2}
}

func newHarness(t testing.TB, privateMax int, mutate func(*Config)) *harness {
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
	multi, err := crosscloud.New(crosscloud.PrivateFirst{}, private, public)
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	brk, err := broker.New(clk, nil)
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
	return &harness{clk: clk, private: private, public: public, multi: multi, brk: brk, lb: lb}
}

// settle runs n LB ticks with boot-completing time in between.
func (h *harness) settle(n int) {
	for i := 0; i < n; i++ {
		h.clk.Advance(45 * time.Second)
		h.lb.Tick()
	}
}

func TestConfigValidation(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	brk, _ := broker.New(clk, nil)
	p, _ := cloud.NewProvider(cloud.Config{Name: "p", Kind: cloud.Private, MaxInstances: 1,
		BootDelay: time.Second, AddrPrefix: "10.", Clock: clk})
	multi, _ := crosscloud.New(nil, p)
	base := Config{Multi: multi, Broker: brk, Clock: clk, Flavor: smallFlavor(), Interval: time.Second}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil multi", func(c *Config) { c.Multi = nil }},
		{"nil broker", func(c *Config) { c.Broker = nil }},
		{"nil clock", func(c *Config) { c.Clock = nil }},
		{"zero interval", func(c *Config) { c.Interval = 0 }},
		{"zero sessions", func(c *Config) { c.Flavor.MaxSessions = 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("New err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestWarmFloorLaunchesMinInstances(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.lb.Tick()
	if got := len(h.multi.Instances()); got != 1 {
		t.Fatalf("instances after first tick = %d, want warm floor 1", got)
	}
	// And it lands on the private cloud.
	if h.multi.Instances()[0].Kind() != cloud.Private {
		t.Fatal("warm instance not private")
	}
}

func TestCloudburstOnSaturationAndReversal(t *testing.T) {
	h := newHarness(t, 2, nil) // private fits 2 instances x 2 sessions = 4
	h.settle(2)                // warm floor running

	// 7 users: 4 fit on private, 3 overflow to public (2 instances).
	var sessions []broker.Session
	for i := 0; i < 7; i++ {
		s, err := h.brk.Connect("user", "topmodel")
		if err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	h.settle(4) // let LB scale up and boots complete

	priv, pub := h.multi.CountByKind()
	if priv != 2 {
		t.Fatalf("private instances = %d, want 2 (saturated)", priv)
	}
	if pub < 1 {
		t.Fatalf("public instances = %d, want >=1 (burst)", pub)
	}
	if h.brk.PendingCount() != 0 {
		t.Fatalf("pending = %d after settle", h.brk.PendingCount())
	}
	// Private capacity fully used before any public session exists.
	privSessions := 0
	for _, in := range h.private.Instances() {
		privSessions += in.Sessions()
	}
	if privSessions != 4 {
		t.Fatalf("private sessions = %d, want 4 (fill private first)", privSessions)
	}

	// Users leave: bursted capacity is reclaimed and sessions move back.
	for _, s := range sessions[:5] {
		if err := h.brk.Disconnect(s.ID); err != nil {
			t.Fatalf("Disconnect: %v", err)
		}
	}
	h.settle(6)
	priv, pub = h.multi.CountByKind()
	if pub != 0 {
		t.Fatalf("public instances = %d after drain, want 0 (reversal)", pub)
	}
	// The two remaining sessions live on private instances.
	for _, s := range h.brk.Sessions() {
		if s.State == broker.Active {
			inst, err := h.private.Get(s.InstanceID)
			if err != nil || inst.Kind() != cloud.Private {
				t.Fatalf("session %s on %s, want private", s.ID, s.InstanceID)
			}
		}
	}
}

func TestMalfunctionStuckCPUReplaced(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.settle(2)
	s, _ := h.brk.Connect("victim", "topmodel")
	if s.State != broker.Active {
		h.settle(2)
	}
	got, _ := h.brk.Session(s.ID)
	bad, err := h.private.Get(got.InstanceID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	bad.Inject(cloud.StuckCPU)

	h.settle(5) // detection (3 suspect ticks) + replacement + reassignment

	if h.lb.Replaced() == 0 {
		t.Fatal("malfunctioning instance never replaced")
	}
	if bad.State() != cloud.StateTerminated {
		t.Fatalf("bad instance state = %v, want terminated", bad.State())
	}
	// The session survived and is bound to a healthy instance.
	after, _ := h.brk.Session(s.ID)
	if after.State != broker.Active {
		t.Fatalf("session state = %v, want active", after.State)
	}
	if after.InstanceID == bad.ID() {
		t.Fatal("session still on the dead instance")
	}
}

func TestMalfunctionSilentNICReplaced(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.settle(2)
	s, _ := h.brk.Connect("victim", "topmodel")
	got, _ := h.brk.Session(s.ID)
	bad, _ := h.private.Get(got.InstanceID)
	bad.Inject(cloud.SilentNIC)

	// Traffic keeps arriving between ticks: inbound grows, outbound flat.
	for i := 0; i < 6; i++ {
		if err := bad.ServeRequest(1000, 4000); err != nil {
			break // terminated mid-loop is fine
		}
		h.settle(1)
	}
	if h.lb.Replaced() == 0 {
		t.Fatal("silent-NIC instance never replaced")
	}
}

func TestHealthyLoadedInstanceNotReplaced(t *testing.T) {
	// Full session load yields CPU=1.0 but is explained by load: the LB
	// must not kill it.
	h := newHarness(t, 4, nil)
	h.settle(2)
	for i := 0; i < 2; i++ { // saturate the first instance
		h.brk.Connect("user", "topmodel")
	}
	h.settle(5)
	if h.lb.Replaced() != 0 {
		t.Fatalf("replaced %d healthy instances", h.lb.Replaced())
	}
}

func TestPlaceNowPrefersPrivateAndLeastLoaded(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.MinInstances = 2 })
	h.settle(3) // two private instances warm
	insts := h.private.Instances()
	if len(insts) != 2 {
		t.Fatalf("private instances = %d", len(insts))
	}
	// Load the first one.
	insts[0].AddSession()
	got := h.lb.PlaceNow("topmodel")
	if got.ID() != insts[1].ID() {
		t.Fatalf("PlaceNow = %s, want least-loaded %s", got.ID(), insts[1].ID())
	}
	if h.lb.PlaceNow("unknown-service") != nil {
		t.Fatal("PlaceNow served an unknown service from a streamlined image")
	}
}

func TestIncubatorServesAnything(t *testing.T) {
	h := newHarness(t, 4, func(c *Config) {
		c.Image = cloud.Image{ID: "incubator-v1", Kind: cloud.Incubator}
	})
	h.settle(2)
	if h.lb.PlaceNow("some-experimental-model") == nil {
		t.Fatal("incubator image should serve any model")
	}
}

func TestStartStopLoop(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.lb.Start()
	h.lb.Start() // idempotent
	h.clk.Advance(time.Minute)
	if h.lb.Ticks() < 5 {
		t.Fatalf("ticks = %d, want >=5 over a minute at 10s interval", h.lb.Ticks())
	}
	h.lb.Stop()
	n := h.lb.Ticks()
	h.clk.Advance(time.Minute)
	if h.lb.Ticks() != n {
		t.Fatal("loop kept ticking after Stop")
	}
	if h.clk.PendingTimers() != 0 {
		t.Fatalf("pending timers after Stop = %d", h.clk.PendingTimers())
	}
}

// TestStopGatesInFlightTick reproduces the Stop race deterministically: a
// timer callback that was already in flight when Stop ran must not execute
// the tick body, record events, or re-arm the loop.
func TestStopGatesInFlightTick(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.lb.Start()
	h.lb.Stop()
	ticks, events := h.lb.Ticks(), len(h.lb.Events())
	// Invoke the timer callback directly, standing in for an Every run
	// that fired just before Stop cancelled the timer.
	h.lb.loopTick()
	if h.lb.Ticks() != ticks {
		t.Fatalf("tick ran after Stop: %d -> %d", ticks, h.lb.Ticks())
	}
	if len(h.lb.Events()) != events {
		t.Fatal("events recorded after Stop")
	}
	if h.clk.PendingTimers() != 0 {
		t.Fatalf("loop re-armed after Stop: %d pending timers", h.clk.PendingTimers())
	}
	// The loop still restarts cleanly afterwards.
	h.lb.Start()
	h.clk.Advance(time.Minute)
	if h.lb.Ticks() == ticks {
		t.Fatal("loop did not tick after restart")
	}
	h.lb.Stop()
}

// TestConnectWhileTickHoldsLock: placement never waits for a tick. The
// test holds the LB's mutex, standing in for a tick in progress, and a
// session connect must still be placed on the warm cluster's free slot.
func TestConnectWhileTickHoldsLock(t *testing.T) {
	h := newWarmHarness(t)
	h.lb.mu.Lock()
	done := make(chan broker.Session, 1)
	go func() {
		s, err := h.brk.Connect("user", "topmodel")
		if err != nil {
			t.Errorf("Connect: %v", err)
		}
		done <- s
	}()
	var s broker.Session
	select {
	case s = <-done:
		h.lb.mu.Unlock()
	case <-time.After(5 * time.Second):
		h.lb.mu.Unlock()
		<-done
		t.Fatal("Connect blocked for 5s on the LB's mutex")
	}
	if s.State != broker.Active || s.InstanceID == "" {
		t.Fatalf("session = %+v, want placed", s)
	}
}

func TestEventsRecorded(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.settle(1)
	events := h.lb.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	if events[0].Action != "launch" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[0].At.Before(epoch) {
		t.Fatal("event timestamp before epoch")
	}
}

func TestScaleUpCoversPendingBurst(t *testing.T) {
	h := newHarness(t, 1, nil) // private: 1 instance x 2 sessions
	h.settle(2)
	for i := 0; i < 10; i++ {
		h.brk.Connect("user", "topmodel")
	}
	h.lb.Tick() // scale-up decision
	// Should have launched ceil(8/2)=4 more instances beyond the warm one.
	if total := len(h.multi.Instances()); total < 5 {
		t.Fatalf("instances after burst = %d, want >=5", total)
	}
	h.settle(4)
	if h.brk.PendingCount() != 0 {
		t.Fatalf("pending after settle = %d", h.brk.PendingCount())
	}
}

// TestChaosNoSessionLost injects random failures over a long horizon and
// checks the core invariant: no session the user did not close is ever
// lost, and the system always converges back to serving everyone.
func TestChaosNoSessionLost(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.settle(2)
	rng := rand.New(rand.NewSource(99))

	var open []string
	for round := 0; round < 40; round++ {
		switch rng.Intn(4) {
		case 0: // user arrives
			s, err := h.brk.Connect("chaos-user", "topmodel")
			if err != nil {
				t.Fatalf("round %d connect: %v", round, err)
			}
			open = append(open, s.ID)
		case 1: // user leaves
			if len(open) > 0 {
				i := rng.Intn(len(open))
				if err := h.brk.Disconnect(open[i]); err != nil {
					t.Fatalf("round %d disconnect: %v", round, err)
				}
				open = append(open[:i], open[i+1:]...)
			}
		case 2: // an instance malfunctions
			instances := h.multi.Instances()
			if len(instances) > 0 {
				victim := instances[rng.Intn(len(instances))]
				if victim.State() == cloud.StateRunning {
					mode := cloud.StuckCPU
					if rng.Intn(2) == 0 {
						mode = cloud.SilentNIC
					}
					victim.Inject(mode)
					victim.ServeRequest(1000, 4000)
				}
			}
		case 3: // traffic flows (makes SilentNIC detectable)
			for _, in := range h.multi.Instances() {
				if in.State() == cloud.StateRunning {
					in.ServeRequest(512, 2048)
				}
			}
		}
		h.settle(1)
	}
	// Converge.
	h.settle(12)

	for _, id := range open {
		s, err := h.brk.Session(id)
		if err != nil {
			t.Fatalf("session %s vanished: %v", id, err)
		}
		if s.State == broker.Closed {
			t.Fatalf("session %s closed without user action", id)
		}
		if s.State != broker.Active {
			t.Fatalf("session %s not served after convergence: %v", id, s.State)
		}
		// The serving instance is alive and healthy.
		found := false
		for _, in := range h.multi.Instances() {
			if in.ID() == s.InstanceID && in.State() == cloud.StateRunning {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("session %s bound to dead instance %s", id, s.InstanceID)
		}
	}
}

// TestTerminateRetryBackoffGrowthAndCap pins the terminate-retry delays
// at a 10 s control interval to the schedule exponential backoff with
// base Interval, factor 2 and cap 16·Interval gives: the first retry
// waits one interval, each later one doubles, and none waits past the
// cap.
func TestTerminateRetryBackoffGrowthAndCap(t *testing.T) {
	const interval = 10 * time.Second
	want := []time.Duration{
		10 * time.Second, 20 * time.Second, 40 * time.Second, 80 * time.Second,
		160 * time.Second, 160 * time.Second, 160 * time.Second, 160 * time.Second,
		160 * time.Second,
	}
	for k, w := range want {
		if got := terminateDelay(interval, k); got != w {
			t.Fatalf("terminateDelay(10s, %d) = %v, want %v", k, got, w)
		}
	}
	if got := terminateDelay(interval, -5); got != interval {
		t.Fatalf("terminateDelay(10s, -5) = %v, want the interval", got)
	}
}

// TestTerminateRetryBackoffBaseAndCapFollowInterval checks the delay's
// base and cap scale with the control interval: the first retry waits
// exactly Interval and a long run of failures settles at 16·Interval.
func TestTerminateRetryBackoffBaseAndCapFollowInterval(t *testing.T) {
	for _, interval := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		if got := terminateDelay(interval, 0); got != interval {
			t.Fatalf("terminateDelay(%v, 0) = %v, want the interval", interval, got)
		}
		if got := terminateDelay(interval, 1000); got != 16*interval {
			t.Fatalf("terminateDelay(%v, 1000) = %v, want cap %v", interval, got, 16*interval)
		}
	}
}

// newWarmHarness returns a settled cluster: two private instances
// serving three users, no public capacity and nothing pending, so
// further ticks launch, replace and reclaim nothing.
func newWarmHarness(t testing.TB) *harness {
	t.Helper()
	h := newHarness(t, 4, func(c *Config) { c.MinInstances = 2 })
	h.settle(2)
	for i := 0; i < 3; i++ {
		if _, err := h.brk.Connect("user", "topmodel"); err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
	}
	h.settle(6)
	if priv, pub := h.multi.CountByKind(); priv != 2 || pub != 0 || h.brk.PendingCount() != 0 {
		t.Fatalf("warm cluster: %d private, %d public, %d pending; want 2, 0, 0",
			priv, pub, h.brk.PendingCount())
	}
	return h
}

// BenchmarkTickWarm measures one control tick on a settled cluster.
func BenchmarkTickWarm(b *testing.B) {
	h := newWarmHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.lb.Tick()
	}
}

// placed keeps BenchmarkPlaceNow's result live.
var placed *cloud.Instance

// BenchmarkPlaceNow measures one placement decision on a settled cluster.
func BenchmarkPlaceNow(b *testing.B) {
	h := newWarmHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placed = h.lb.PlaceNow("topmodel")
	}
}

// TestEventLogBounded drives the log past its bound: it keeps the newest
// maxEvents events, oldest first, while the action counter keeps the
// lifetime total.
func TestEventLogBounded(t *testing.T) {
	h := newHarness(t, 4, nil)
	const extra = 10
	for i := 0; i < maxEvents+extra; i++ {
		h.lb.record(actMigrate, strconv.Itoa(i))
	}
	events := h.lb.Events()
	if len(events) != maxEvents {
		t.Fatalf("log holds %d events, want %d", len(events), maxEvents)
	}
	for i, e := range events {
		if want := strconv.Itoa(i + extra); e.Detail != want || e.Action != "migrate" {
			t.Fatalf("event %d = %+v, want migrate %s", i, e, want)
		}
	}
	if got := h.lb.actions[actMigrate].Value(); got != maxEvents+extra {
		t.Fatalf("migrate actions = %d, want %d", got, maxEvents+extra)
	}
}
