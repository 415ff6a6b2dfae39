package crosscloud

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/metrics"
	"evop/internal/resilience"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func testClouds(t *testing.T, privateMax int) (*clock.Simulated, cloud.Provider, cloud.Provider) {
	t.Helper()
	clk := clock.NewSimulated(epoch)
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: privateMax,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("private provider: %v", err)
	}
	public, err := cloud.NewProvider(cloud.Config{
		Name: "aws", Kind: cloud.Public, MaxInstances: -1,
		BootDelay: 90 * time.Second, AddrPrefix: "54.0.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("public provider: %v", err)
	}
	return clk, private, public
}

func img(kind cloud.ImageKind) cloud.Image {
	return cloud.Image{ID: "img-" + kind.String(), Name: "test", Kind: kind}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("no providers err = %v", err)
	}
	_, private, _ := testClouds(t, 2)
	if _, err := New(nil, private, private); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("duplicate provider err = %v", err)
	}
	m, err := New(nil, private)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.policy.Name() != "private-first" {
		t.Fatalf("default policy = %q", m.policy.Name())
	}
}

func TestPrivateFirstCloudburstOrder(t *testing.T) {
	_, private, public := testClouds(t, 2)
	m, _ := New(PrivateFirst{}, private, public)

	// First two land on private.
	for i := 0; i < 2; i++ {
		inst, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
		if err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
		if inst.Kind() != cloud.Private {
			t.Fatalf("launch %d went %v, want private", i, inst.Kind())
		}
	}
	// Private saturated: burst to public.
	inst, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("burst Launch: %v", err)
	}
	if inst.Kind() != cloud.Public {
		t.Fatalf("burst went %v, want public", inst.Kind())
	}
	priv, pub := m.CountByKind()
	if priv != 2 || pub != 1 {
		t.Fatalf("counts = %d private, %d public", priv, pub)
	}
}

func TestByImageKindPolicy(t *testing.T) {
	_, private, public := testClouds(t, 2)
	m, _ := New(ByImageKind{}, private, public)

	stream, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch streamlined: %v", err)
	}
	if stream.Kind() != cloud.Public {
		t.Fatalf("streamlined went %v, want public", stream.Kind())
	}
	inc, err := m.Launch(img(cloud.Incubator), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch incubator: %v", err)
	}
	if inc.Kind() != cloud.Private {
		t.Fatalf("incubator went %v, want private", inc.Kind())
	}
}

func TestByImageKindFallsBack(t *testing.T) {
	_, private, public := testClouds(t, 0) // private full from the start
	m, _ := New(ByImageKind{}, private, public)
	inc, err := m.Launch(img(cloud.Incubator), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if inc.Kind() != cloud.Public {
		t.Fatalf("incubator with full private went %v, want public fallback", inc.Kind())
	}
}

func TestLaunchExhausted(t *testing.T) {
	_, private, _ := testClouds(t, 1)
	m, _ := New(PrivateFirst{}, private)
	if _, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("exhausted err = %v", err)
	}
}

func TestTerminateAcrossProviders(t *testing.T) {
	_, private, public := testClouds(t, 1)
	m, _ := New(PrivateFirst{}, private, public)
	a, _ := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	b, _ := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if a.Kind() == b.Kind() {
		t.Fatal("fixture should spread across providers")
	}
	if err := m.Terminate(b.ID()); err != nil {
		t.Fatalf("Terminate public: %v", err)
	}
	if err := m.Terminate(a.ID()); err != nil {
		t.Fatalf("Terminate private: %v", err)
	}
	if err := m.Terminate("ghost"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("Terminate unknown err = %v", err)
	}
	if got := len(m.Instances()); got != 0 {
		t.Fatalf("Instances = %d, want 0", got)
	}
}

func TestProviderLookup(t *testing.T) {
	_, private, public := testClouds(t, 1)
	m, _ := New(nil, private, public)
	if got := len(m.Providers()); got != 2 {
		t.Fatalf("Providers = %d", got)
	}
}

func TestCostAccruedAggregates(t *testing.T) {
	clk, private, public := testClouds(t, 1)
	m, _ := New(PrivateFirst{}, private, public)
	m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()) // private, free
	m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()) // public, 0.10/h
	clk.Advance(time.Hour)
	got := m.CostAccrued()
	if got < 0.09 || got > 0.11 {
		t.Fatalf("CostAccrued = %v, want ~0.10", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if (PrivateFirst{}).Name() != "private-first" || (ByImageKind{}).Name() != "by-image-kind" {
		t.Fatal("policy names changed")
	}
}

func TestCostAwareSpreadsAcrossPublicProviders(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	mk := func(name string) cloud.Provider {
		p, err := cloud.NewProvider(cloud.Config{
			Name: name, Kind: cloud.Public, MaxInstances: -1,
			BootDelay: time.Minute, AddrPrefix: "54.1.0.", Clock: clk,
		})
		if err != nil {
			t.Fatalf("provider %s: %v", name, err)
		}
		return p
	}
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack-x", Kind: cloud.Private, MaxInstances: 1,
		BootDelay: time.Minute, AddrPrefix: "10.9.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("private: %v", err)
	}
	awsLike, azureLike := mk("aws-like"), mk("azure-like")
	m, err := New(CostAware{}, private, awsLike, azureLike)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.policy.Name() != "cost-aware" {
		t.Fatalf("policy = %s", m.policy.Name())
	}

	// First launch fills the private slot.
	first, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if first.Kind() != cloud.Private {
		t.Fatal("cost-aware did not prefer private capacity")
	}
	// Subsequent launches alternate between the public providers as cost
	// accrues: launch, let an hour of lease accrue, launch again.
	counts := map[string]int{}
	for i := 0; i < 4; i++ {
		inst, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
		if err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
		counts[inst.ProviderName()]++
		clk.Advance(time.Hour)
	}
	if counts["aws-like"] == 0 || counts["azure-like"] == 0 {
		t.Fatalf("cost-aware did not spread: %v", counts)
	}
}

// faultyClouds wraps the standard pair in FaultyProviders.
func faultyClouds(t *testing.T, privateMax int, privSpec, pubSpec cloud.FaultSpec) (*clock.Simulated, *cloud.FaultyProvider, *cloud.FaultyProvider) {
	t.Helper()
	clk, private, public := testClouds(t, privateMax)
	fpriv, err := cloud.NewFaultyProvider(private, clk, privSpec)
	if err != nil {
		t.Fatalf("faulty private: %v", err)
	}
	fpub, err := cloud.NewFaultyProvider(public, clk, pubSpec)
	if err != nil {
		t.Fatalf("faulty public: %v", err)
	}
	return clk, fpriv, fpub
}

func TestLaunchFailsOverPastFaultyProvider(t *testing.T) {
	_, fpriv, fpub := faultyClouds(t, 4,
		cloud.FaultSpec{Seed: 1, LaunchErrorRate: 1}, cloud.FaultSpec{Seed: 2})
	m, _ := New(PrivateFirst{}, fpriv, fpub)

	// Private errors on every launch; the façade must fail over to public
	// instead of aborting.
	inst, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if inst.Kind() != cloud.Public {
		t.Fatalf("instance kind = %v, want public (failover)", inst.Kind())
	}
	// Without EnableBreakers the counters are private, unregistered
	// instruments: read them in place.
	if got := m.guards.Load().failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if priv := m.statsFor("openstack"); priv.launchFaults.Value() != 1 {
		t.Fatalf("private launch failures = %d, want 1", priv.launchFaults.Value())
	}
	if pub := m.statsFor("aws"); pub.launches.Value() != 1 || pub.launchFaults.Value() != 0 {
		t.Fatalf("public launches/failures = %d/%d, want 1/0", pub.launches.Value(), pub.launchFaults.Value())
	}
	if m.breakerFor("openstack") != nil {
		t.Fatal("breaker installed without EnableBreakers")
	}
}

func TestLaunchAllProvidersDownReturnsNoProvider(t *testing.T) {
	_, fpriv, fpub := faultyClouds(t, 4,
		cloud.FaultSpec{Seed: 1, LaunchErrorRate: 1}, cloud.FaultSpec{Seed: 2, LaunchErrorRate: 1})
	m, _ := New(PrivateFirst{}, fpriv, fpub)
	_, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if !errors.Is(err, ErrNoProvider) {
		t.Fatalf("err = %v, want ErrNoProvider", err)
	}
	if !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("err = %v, want to wrap the underlying ErrTransient", err)
	}
}

func TestBreakerOpensAndSkipsProvider(t *testing.T) {
	clk, fpriv, fpub := faultyClouds(t, 4,
		cloud.FaultSpec{Seed: 1, LaunchErrorRate: 1}, cloud.FaultSpec{Seed: 2})
	m, _ := New(PrivateFirst{}, fpriv, fpub)
	reg := metrics.NewRegistry(clk)
	if err := m.EnableBreakers(resilience.BreakerConfig{
		Clock: clk, FailureThreshold: 3, OpenTimeout: time.Minute, Metrics: reg,
	}); err != nil {
		t.Fatalf("EnableBreakers: %v", err)
	}

	// Three failing launches trip the private breaker (each still fails
	// over to public).
	for i := 0; i < 3; i++ {
		if _, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
	}
	private := metrics.L("provider", "openstack")
	opens := reg.Counter("evop_breaker_opens_total", "", metrics.L("name", "openstack")).Value()
	if st := m.breakerFor("openstack").State(); st != resilience.Open || opens != 1 {
		t.Fatalf("private breaker = %v after %d opens, want open after 1", st, opens)
	}
	// While open, private is skipped without a control-plane call.
	before := fpriv.Stats().Launches
	if _, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); err != nil {
		t.Fatalf("Launch while open: %v", err)
	}
	if fpriv.Stats().Launches != before {
		t.Fatal("open breaker still let a launch through")
	}
	if reg.Counter("evop_cloud_skipped_open_total", "", private).Value() == 0 {
		t.Fatal("skip not counted")
	}
	if got := reg.Counter("evop_cloud_failovers_total", "").Value(); got < 4 {
		t.Fatalf("failovers = %d, want >=4", got)
	}

	// Provider heals; after the cooldown a probe closes the breaker.
	fpriv.SetErrorRates(0, 0, 0)
	clk.Advance(time.Minute)
	m.ProbeHealth()
	if st := m.breakerFor("openstack").State(); st != resilience.Closed {
		t.Fatalf("private breaker after probe = %v, want closed", st)
	}
	if reg.Counter("evop_cloud_probes_total", "", private).Value() == 0 {
		t.Fatal("probe not counted")
	}
	// Launches flow to private again.
	inst, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch after recovery: %v", err)
	}
	if inst.Kind() != cloud.Private {
		t.Fatalf("instance kind = %v, want private after recovery", inst.Kind())
	}
}

func TestProbeHealthKeepsOpenBreakerOpenWhileDown(t *testing.T) {
	clk, fpriv, fpub := faultyClouds(t, 4,
		cloud.FaultSpec{Seed: 1, LaunchErrorRate: 1, GetErrorRate: 1}, cloud.FaultSpec{Seed: 2})
	m, _ := New(PrivateFirst{}, fpriv, fpub)
	reg := metrics.NewRegistry(clk)
	if err := m.EnableBreakers(resilience.BreakerConfig{
		Clock: clk, FailureThreshold: 2, OpenTimeout: 30 * time.Second, Metrics: reg,
	}); err != nil {
		t.Fatalf("EnableBreakers: %v", err)
	}
	for i := 0; i < 2; i++ {
		m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	}
	if m.breakerFor("openstack").State() != resilience.Open {
		t.Fatal("breaker did not open")
	}
	// Probe during the outage: the failed probe re-opens the breaker.
	clk.Advance(30 * time.Second)
	m.ProbeHealth()
	if got := m.breakerFor("openstack").State(); got != resilience.Open {
		t.Fatalf("breaker after failed probe = %v, want open", got)
	}
	// ProbeHealth never touches healthy-closed breakers.
	if reg.Counter("evop_cloud_probes_total", "", metrics.L("provider", "aws")).Value() != 0 {
		t.Fatal("closed public breaker was probed")
	}
}

func TestTerminateSurvivesFaultyFirstProvider(t *testing.T) {
	_, fpriv, fpub := faultyClouds(t, 4,
		cloud.FaultSpec{Seed: 9, TerminateErrorRate: 1}, cloud.FaultSpec{Seed: 2})
	m, _ := New(PrivateFirst{}, fpriv, fpub)
	// Fill private first so the next launch lands on public.
	for i := 0; i < 4; i++ {
		if _, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
	}
	pub, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("public Launch: %v", err)
	}
	// Private's control plane errors on terminate, but the instance lives
	// on public: the façade must still reach it.
	if err := m.Terminate(pub.ID()); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	// Terminating a private instance fails (and reports the fault).
	privInst := fpriv.Instances()[0]
	if err := m.Terminate(privInst.ID()); !errors.Is(err, cloud.ErrTransient) {
		t.Fatalf("Terminate err = %v, want ErrTransient", err)
	}
	if m.statsFor("openstack").terminateFaults.Value() == 0 {
		t.Fatal("terminate failure not counted")
	}
}

// TestInstanceListsAreSnapshots checks the copy-on-write contract: a list
// taken from Multi.Instances or SimProvider.Instances before a Launch or
// Terminate is element-for-element unchanged afterwards, while a fresh
// read shows the change.
func TestInstanceListsAreSnapshots(t *testing.T) {
	_, private, public := testClouds(t, 2)
	m, _ := New(PrivateFirst{}, private, public)
	var ids []string
	for i := 0; i < 4; i++ { // two private, then two public
		in, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
		if err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
		ids = append(ids, in.ID())
	}
	type snap struct {
		name string
		list []*cloud.Instance
		want []*cloud.Instance
	}
	take := func() []snap {
		var out []snap
		for _, s := range []struct {
			name string
			list []*cloud.Instance
		}{
			{"multi", m.Instances()},
			{"private", private.Instances()},
			{"public", public.Instances()},
		} {
			out = append(out, snap{s.name, s.list, append([]*cloud.Instance(nil), s.list...)})
		}
		return out
	}
	// check reads every list afresh first: the joined list is rebuilt
	// lazily, on the read after a change.
	check := func(step string, snaps []snap) {
		t.Helper()
		take()
		for _, s := range snaps {
			if len(s.list) != len(s.want) {
				t.Fatalf("%s: %s list length %d, was %d", step, s.name, len(s.list), len(s.want))
			}
			for i := range s.list {
				if s.list[i] != s.want[i] {
					t.Fatalf("%s: %s list [%d] = %s, was %s", step, s.name, i, s.list[i].ID(), s.want[i].ID())
				}
			}
		}
	}

	// Terminate the head of each provider's list, then launch into the
	// freed private slot.
	before := take()
	if err := m.Terminate(ids[0]); err != nil {
		t.Fatalf("Terminate private: %v", err)
	}
	if err := m.Terminate(ids[2]); err != nil {
		t.Fatalf("Terminate public: %v", err)
	}
	check("after terminate", before)
	if got := len(m.Instances()); got != 2 {
		t.Fatalf("live after terminate = %d, want 2", got)
	}

	before = take()
	launched, err := m.Launch(img(cloud.Streamlined), cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	check("after launch", before)
	now := m.Instances()
	if len(now) != 3 || now[0].ID() != ids[1] || now[1].ID() != launched.ID() || now[2].ID() != ids[3] {
		t.Fatalf("live after launch = %v, want [%s %s %s]", idsOf(now), ids[1], launched.ID(), ids[3])
	}

	// Emptying a provider publishes an empty list; old snapshots keep
	// their elements.
	before = take()
	for _, in := range now {
		if err := m.Terminate(in.ID()); err != nil {
			t.Fatalf("Terminate %s: %v", in.ID(), err)
		}
	}
	check("after emptying", before)
	if got := len(m.Instances()); got != 0 {
		t.Fatalf("live after emptying = %d, want 0", got)
	}
}

func idsOf(list []*cloud.Instance) []string {
	out := make([]string, len(list))
	for i, in := range list {
		out[i] = in.ID()
	}
	return out
}

// TestMultiInstancesConcurrent reads the joined list, both providers'
// capacity and every listed instance's state from other goroutines
// while both providers launch and terminate and the clock boots their
// instances. Each list a reader takes must be in launch order (provider
// by provider, each provider's part by rising launch number), hold no
// nil and no repeated instance, and stay element-for-element unchanged
// while it is read; under -race this also checks that publishing a list
// never races with reading one.
func TestMultiInstancesConcurrent(t *testing.T) {
	clk, private, public := testClouds(t, 6)
	m, err := New(PrivateFirst{}, private, public)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	providers := []cloud.Provider{private, public}
	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, readers+len(providers)) // at most one each
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				list := m.Instances()
				want := append([]*cloud.Instance(nil), list...)
				if err := launchOrdered(list, providers); err != nil {
					errs <- err
					return
				}
				for _, in := range list {
					_ = in.State()
				}
				for _, p := range providers {
					if used, total := p.Capacity(); used < 0 || total >= 0 && used > total {
						errs <- fmt.Errorf("%s capacity %d/%d", p.Name(), used, total)
						return
					}
				}
				for i := range list {
					if list[i] != want[i] {
						errs <- fmt.Errorf("list changed at [%d] while read", i)
						return
					}
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for _, p := range providers {
		wwg.Add(1)
		go func(p cloud.Provider) {
			defer wwg.Done()
			for i := 0; i < 200; i++ {
				if _, err := p.Launch(img(cloud.Streamlined), cloud.DefaultFlavor()); err != nil && !errors.Is(err, cloud.ErrCapacity) {
					errs <- fmt.Errorf("%s launch: %w", p.Name(), err)
					return
				}
				if l := p.Instances(); len(l) > 3 {
					if err := p.Terminate(l[i%len(l)].ID()); err != nil {
						errs <- fmt.Errorf("%s terminate: %w", p.Name(), err)
						return
					}
				}
			}
		}(p)
	}
	written := make(chan struct{})
	go func() {
		wwg.Wait()
		close(written)
	}()
	for booting := true; booting; {
		select {
		case <-written:
			booting = false
		default:
			clk.Advance(time.Minute) // boots what the writers launched
		}
	}
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var want []*cloud.Instance
	for _, p := range providers {
		want = append(want, p.Instances()...)
	}
	if got := idsOf(m.Instances()); !reflect.DeepEqual(got, idsOf(want)) {
		t.Fatalf("joined list %v, want the providers' lists %v", got, idsOf(want))
	}
}

// launchOrdered checks that list holds no nil or repeated instance and
// is in launch order: providers in registration order, and each
// provider's instances by rising launch number (the ID's "-i" suffix).
func launchOrdered(list []*cloud.Instance, providers []cloud.Provider) error {
	p, last := 0, 0
	for i, in := range list {
		if in == nil {
			return fmt.Errorf("nil instance at [%d]", i)
		}
		for p < len(providers) && in.ProviderName() != providers[p].Name() {
			p, last = p+1, 0
		}
		if p == len(providers) {
			return fmt.Errorf("%s at [%d] is out of provider order: %v", in.ID(), i, idsOf(list))
		}
		id := in.ID()
		seq, err := strconv.Atoi(id[strings.LastIndex(id, "-i")+2:])
		if err != nil {
			return fmt.Errorf("instance ID %q: %w", id, err)
		}
		if seq <= last {
			return fmt.Errorf("%s at [%d] is repeated or out of launch order: %v", id, i, idsOf(list))
		}
		last = seq
	}
	return nil
}

// breakerFor returns the provider's breaker, or nil when breakers are
// disabled.
func (m *Multi) breakerFor(name string) *resilience.Breaker {
	if g := m.guards.Load(); g.breakers != nil {
		return g.breakers[m.index[name]]
	}
	return nil
}

// statsFor returns the provider's counters.
func (m *Multi) statsFor(name string) *providerStats {
	return m.guards.Load().stats[m.index[name]]
}
