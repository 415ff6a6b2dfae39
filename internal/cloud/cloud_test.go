package cloud

import (
	"errors"
	"math"
	"testing"
	"time"

	"evop/internal/clock"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func newTestProvider(t *testing.T, clk clock.Clock, kind ProviderKind, max int) *SimProvider {
	t.Helper()
	name := "openstack-test"
	prefix := "10.1.0."
	if kind == Public {
		name = "aws-test"
		prefix = "54.0.0."
	}
	p, err := NewProvider(Config{
		Name: name, Kind: kind, MaxInstances: max,
		BootDelay: 30 * time.Second, AddrPrefix: prefix, Clock: clk,
	})
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	return p
}

func streamlinedImage() Image {
	return Image{ID: "topmodel-morland-v1", Name: "TOPMODEL Morland", Kind: Streamlined,
		Services: []string{"topmodel"}}
}

func incubatorImage() Image {
	return Image{ID: "incubator-v1", Name: "Model incubator", Kind: Incubator,
		ExtraBootDelay: 5 * time.Minute}
}

func TestConfigValidate(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	base := Config{Name: "p", Kind: Private, MaxInstances: 4,
		BootDelay: time.Second, AddrPrefix: "10.0.0.", Clock: clk}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty name", func(c *Config) { c.Name = "" }},
		{"bad kind", func(c *Config) { c.Kind = 0 }},
		{"negative boot", func(c *Config) { c.BootDelay = -time.Second }},
		{"nil clock", func(c *Config) { c.Clock = nil }},
		{"empty prefix", func(c *Config) { c.AddrPrefix = "" }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewProvider(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("NewProvider = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestLaunchBootLifecycle(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 4)
	inst, err := p.Launch(streamlinedImage(), DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if inst.State() != StateBooting {
		t.Fatalf("state after launch = %v, want booting", inst.State())
	}
	if err := inst.AddSession(); !errors.Is(err, ErrBadState) {
		t.Fatalf("AddSession while booting err = %v", err)
	}
	clk.Advance(29 * time.Second)
	if inst.State() != StateBooting {
		t.Fatal("became running before boot delay")
	}
	clk.Advance(2 * time.Second)
	if inst.State() != StateRunning {
		t.Fatalf("state after boot delay = %v", inst.State())
	}
	if inst.Addr() == "" || inst.ID() == "" {
		t.Fatal("missing addr or id")
	}
	if inst.ProviderName() != "openstack-test" || inst.Kind() != Private {
		t.Fatalf("provider metadata wrong: %s %v", inst.ProviderName(), inst.Kind())
	}
}

func TestIncubatorBootsSlower(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 4)
	fast, _ := p.Launch(streamlinedImage(), DefaultFlavor())
	slow, _ := p.Launch(incubatorImage(), DefaultFlavor())
	clk.Advance(time.Minute)
	if fast.State() != StateRunning {
		t.Fatal("streamlined image not running after 1 min")
	}
	if slow.State() != StateBooting {
		t.Fatal("incubator image running too early")
	}
	clk.Advance(5 * time.Minute)
	if slow.State() != StateRunning {
		t.Fatal("incubator image not running after extra delay")
	}
}

func TestCapacityEnforced(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	if _, err := p.Launch(streamlinedImage(), DefaultFlavor()); err != nil {
		t.Fatalf("Launch 1: %v", err)
	}
	inst2, err := p.Launch(streamlinedImage(), DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch 2: %v", err)
	}
	if _, err := p.Launch(streamlinedImage(), DefaultFlavor()); !errors.Is(err, ErrCapacity) {
		t.Fatalf("Launch 3 err = %v, want ErrCapacity", err)
	}
	used, total := p.Capacity()
	if used != 2 || total != 2 {
		t.Fatalf("Capacity = %d/%d", used, total)
	}
	if err := p.Terminate(inst2.ID()); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if _, err := p.Launch(streamlinedImage(), DefaultFlavor()); err != nil {
		t.Fatalf("Launch after terminate: %v", err)
	}
}

func TestUnboundedPublicCapacity(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Public, -1)
	for i := 0; i < 100; i++ {
		if _, err := p.Launch(streamlinedImage(), DefaultFlavor()); err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
	}
	used, total := p.Capacity()
	if used != 100 || total != -1 {
		t.Fatalf("Capacity = %d/%d", used, total)
	}
}

func TestTerminateErrors(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	if err := p.Terminate("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Terminate unknown err = %v", err)
	}
	inst, _ := p.Launch(streamlinedImage(), DefaultFlavor())
	if err := p.Terminate(inst.ID()); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if err := p.Terminate(inst.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Terminate err = %v", err)
	}
	if inst.State() != StateTerminated {
		t.Fatalf("state = %v", inst.State())
	}
	if _, err := p.Get(inst.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after terminate err = %v", err)
	}
}

func TestTerminateDuringBootCancelsTimer(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	inst, _ := p.Launch(streamlinedImage(), DefaultFlavor())
	if err := p.Terminate(inst.ID()); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	clk.Advance(time.Hour)
	if inst.State() != StateTerminated {
		t.Fatalf("terminated instance resurrected: %v", inst.State())
	}
}

func TestInstancesOrderedByLaunch(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 5)
	var ids []string
	for i := 0; i < 3; i++ {
		inst, _ := p.Launch(streamlinedImage(), DefaultFlavor())
		ids = append(ids, inst.ID())
	}
	got := p.Instances()
	if len(got) != 3 {
		t.Fatalf("Instances = %d", len(got))
	}
	for i, inst := range got {
		if inst.ID() != ids[i] {
			t.Fatalf("order[%d] = %s, want %s", i, inst.ID(), ids[i])
		}
	}
}

func TestSessionsAndSaturation(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	flavor := DefaultFlavor()
	flavor.MaxSessions = 2
	inst, _ := p.Launch(streamlinedImage(), flavor)
	clk.Advance(time.Minute)
	if inst.Saturated() {
		t.Fatal("fresh instance saturated")
	}
	for i := 0; i < 2; i++ {
		if err := inst.AddSession(); err != nil {
			t.Fatalf("AddSession: %v", err)
		}
	}
	if !inst.Saturated() {
		t.Fatal("instance not saturated at MaxSessions")
	}
	if inst.Sessions() != 2 {
		t.Fatalf("Sessions = %d", inst.Sessions())
	}
	inst.RemoveSession()
	if inst.Saturated() {
		t.Fatal("still saturated after RemoveSession")
	}
	inst.RemoveSession()
	inst.RemoveSession() // extra removal must not go negative
	if inst.Sessions() != 0 {
		t.Fatalf("Sessions = %d, want 0", inst.Sessions())
	}
}

func TestSnapshotCPUFromLoad(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	flavor := DefaultFlavor()
	flavor.MaxSessions = 4
	inst, _ := p.Launch(streamlinedImage(), flavor)
	clk.Advance(time.Minute)
	inst.AddSession()
	inst.AddSession()
	m := inst.Snapshot()
	if math.Abs(m.CPUUtil-0.5) > 1e-9 {
		t.Fatalf("CPUUtil = %v, want 0.5", m.CPUUtil)
	}
	if m.Sessions != 2 {
		t.Fatalf("Sessions = %d", m.Sessions)
	}
	if !m.At.Equal(clk.Now()) {
		t.Fatalf("At = %v", m.At)
	}
}

func TestFailureInjection(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	inst, _ := p.Launch(streamlinedImage(), DefaultFlavor())
	clk.Advance(time.Minute)

	inst.Inject(StuckCPU)
	if m := inst.Snapshot(); m.CPUUtil != 1 {
		t.Fatalf("StuckCPU CPUUtil = %v", m.CPUUtil)
	}

	inst.Inject(SilentNIC)
	before := inst.Snapshot()
	for i := 0; i < 5; i++ {
		if err := inst.ServeRequest(1000, 5000); err != nil {
			t.Fatalf("ServeRequest: %v", err)
		}
	}
	after := inst.Snapshot()
	if after.NetInBytes <= before.NetInBytes {
		t.Fatal("SilentNIC should still receive")
	}
	if after.NetOutBytes != before.NetOutBytes {
		t.Fatal("SilentNIC sent outbound traffic")
	}

	inst.Inject(Healthy)
	inst.ServeRequest(1000, 5000)
	final := inst.Snapshot()
	if final.NetOutBytes <= after.NetOutBytes {
		t.Fatal("healthy instance should respond")
	}
}

func TestServeRequestStateGuard(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Private, 2)
	inst, _ := p.Launch(streamlinedImage(), DefaultFlavor())
	if err := inst.ServeRequest(1, 1); !errors.Is(err, ErrBadState) {
		t.Fatalf("ServeRequest while booting err = %v", err)
	}
}

func TestCostAccrual(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	p := newTestProvider(t, clk, Public, -1)
	flavor := DefaultFlavor() // 0.10/hour
	inst, _ := p.Launch(streamlinedImage(), flavor)
	clk.Advance(2 * time.Hour)
	if got := p.CostAccrued(); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("running cost = %v, want 0.20", got)
	}
	p.Terminate(inst.ID())
	clk.Advance(10 * time.Hour)
	if got := p.CostAccrued(); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("cost after terminate = %v, want frozen at 0.20", got)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		Private.String():          "private",
		Public.String():           "public",
		Streamlined.String():      "streamlined",
		Incubator.String():        "incubator",
		StateBooting.String():     "booting",
		StateRunning.String():     "running",
		StateTerminated.String():  "terminated",
		Healthy.String():          "healthy",
		StuckCPU.String():         "stuckCPU",
		SilentNIC.String():        "silentNIC",
		ProviderKind(9).String():  "ProviderKind(9)",
		ImageKind(9).String():     "ImageKind(9)",
		InstanceState(9).String(): "InstanceState(9)",
		DegradedMode(9).String():  "DegradedMode(9)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
