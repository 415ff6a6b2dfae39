package cloud

import (
	"errors"
	"testing"
	"time"

	"evop/internal/clock"
)

func newFaultyPair(t *testing.T, spec FaultSpec) (*clock.Simulated, *SimProvider, *FaultyProvider) {
	t.Helper()
	clk := clock.NewSimulated(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC))
	inner, err := NewProvider(Config{
		Name: "openstack", Kind: Private, MaxInstances: 10,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	fp, err := NewFaultyProvider(inner, clk, spec)
	if err != nil {
		t.Fatalf("NewFaultyProvider: %v", err)
	}
	return clk, inner, fp
}

func TestFaultyProviderValidation(t *testing.T) {
	clk := clock.NewSimulated(time.Now())
	inner, _ := NewProvider(Config{Name: "p", Kind: Private, MaxInstances: 1,
		BootDelay: time.Second, AddrPrefix: "10.", Clock: clk})
	if _, err := NewFaultyProvider(nil, clk, FaultSpec{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil inner err = %v", err)
	}
	if _, err := NewFaultyProvider(inner, nil, FaultSpec{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil clock err = %v", err)
	}
	if _, err := NewFaultyProvider(inner, clk, FaultSpec{LaunchErrorRate: 1.5}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad rate err = %v", err)
	}
}

func TestFaultyProviderPassThroughWhenHealthy(t *testing.T) {
	_, inner, fp := newFaultyPair(t, FaultSpec{Seed: 1})
	inst, err := fp.Launch(Image{ID: "img"}, DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if got, _ := fp.Get(inst.ID()); got != inst {
		t.Fatal("Get did not return the launched instance")
	}
	if len(fp.Instances()) != 1 || len(inner.Instances()) != 1 {
		t.Fatal("Instances view inconsistent")
	}
	if used, total := fp.Capacity(); used != 1 || total != 10 {
		t.Fatalf("Capacity = %d/%d", used, total)
	}
	if err := fp.Terminate(inst.ID()); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if fp.Name() != "openstack" || fp.Kind() != Private || fp.Inner() != inner {
		t.Fatal("identity pass-through broken")
	}
}

func TestFaultyProviderTransientErrorsAreSideEffectFree(t *testing.T) {
	_, inner, fp := newFaultyPair(t, FaultSpec{Seed: 7, LaunchErrorRate: 1})
	if _, err := fp.Launch(Image{ID: "img"}, DefaultFlavor()); !errors.Is(err, ErrTransient) {
		t.Fatalf("Launch err = %v, want ErrTransient", err)
	}
	if err := errorsUnwrapLaunch(fp); !errors.Is(err, ErrTransient) {
		t.Fatalf("second Launch err = %v, want ErrTransient", err)
	}
	if len(inner.Instances()) != 0 {
		t.Fatal("failed launch leaked an instance")
	}
	st := fp.Stats()
	if st.Launches != 2 || st.LaunchFaults != 2 || st.Transients != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// errorsUnwrapLaunch performs one more failing launch and returns its error.
func errorsUnwrapLaunch(fp *FaultyProvider) error {
	_, err := fp.Launch(Image{ID: "img"}, DefaultFlavor())
	return err
}

func TestFaultyProviderOutageWindow(t *testing.T) {
	clk, inner, fp := newFaultyPair(t, FaultSpec{Seed: 3})
	inst, err := fp.Launch(Image{ID: "img"}, DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch before outage: %v", err)
	}
	fp.ScheduleOutage(clk.Now().Add(time.Minute), 10*time.Minute)

	// Before the window: calls flow.
	if _, err := fp.Get(inst.ID()); err != nil {
		t.Fatalf("Get before outage: %v", err)
	}
	clk.Advance(time.Minute)
	// Inside the window: every control-plane call fails with ErrOutage.
	if _, err := fp.Launch(Image{ID: "img"}, DefaultFlavor()); !errors.Is(err, ErrOutage) {
		t.Fatalf("Launch during outage err = %v, want ErrOutage", err)
	}
	if err := fp.Terminate(inst.ID()); !errors.Is(err, ErrOutage) {
		t.Fatalf("Terminate during outage err = %v, want ErrOutage", err)
	}
	if _, err := fp.Get(inst.ID()); !errors.Is(err, ErrOutage) {
		t.Fatalf("Get during outage err = %v, want ErrOutage", err)
	}
	if len(inner.Instances()) != 1 {
		t.Fatal("outage calls had side effects")
	}
	// After the window: recovered.
	clk.Advance(10 * time.Minute)
	if err := fp.Terminate(inst.ID()); err != nil {
		t.Fatalf("Terminate after outage: %v", err)
	}
	if got := fp.Stats().Outages; got != 3 {
		t.Fatalf("outage faults = %d, want 3", got)
	}
}

func TestFaultyProviderSlowCallsAndTimeout(t *testing.T) {
	_, _, fp := newFaultyPair(t, FaultSpec{
		Seed: 11, SlowCallRate: 1, SlowCallLatency: 5 * time.Second,
	})
	// Slow but under no deadline: succeeds, latency recorded.
	if _, err := fp.Launch(Image{ID: "img"}, DefaultFlavor()); err != nil {
		t.Fatalf("slow Launch: %v", err)
	}
	st := fp.Stats()
	if st.SlowCalls != 1 || st.MaxLatency != 5*time.Second {
		t.Fatalf("slow-call stats = %+v", st)
	}
	// With a deadline below the injected latency: ErrTimeout, no effect.
	fp.mu.Lock()
	fp.spec.CallTimeout = 2 * time.Second
	fp.mu.Unlock()
	if _, err := fp.Launch(Image{ID: "img"}, DefaultFlavor()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Launch err = %v, want ErrTimeout", err)
	}
	if len(fp.Instances()) != 1 {
		t.Fatal("timed-out launch had a side effect")
	}
	if err := fmtErr(fp); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second timed-out Launch err = %v, want ErrTimeout", err)
	}
}

func fmtErr(fp *FaultyProvider) error {
	_, err := fp.Launch(Image{ID: "img"}, DefaultFlavor())
	return err
}

func TestFaultyProviderDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		_, _, fp := newFaultyPair(t, FaultSpec{Seed: seed, LaunchErrorRate: 0.5})
		out := make([]bool, 0, 32)
		for i := 0; i < 32; i++ {
			_, err := fp.Launch(Image{ID: "img"}, Flavor{Name: "f", MaxSessions: 1})
			out = append(out, err == nil)
			if err == nil {
				for _, in := range fp.Instances() {
					_ = fp.Inner().Terminate(in.ID())
				}
			}
		}
		return out
	}
	a, b, c := run(5), run(5), run(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical fault stream")
	}
}
