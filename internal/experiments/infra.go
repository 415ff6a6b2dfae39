package experiments

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/core"
	"evop/internal/journey"
	"evop/internal/loadbalancer"
	"evop/internal/portal"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

// infraHarness is the shared simulated-infrastructure fixture.
type infraHarness struct {
	clk     *clock.Simulated
	private *cloud.SimProvider
	public  *cloud.SimProvider
	multi   *crosscloud.Multi
	brk     *broker.Broker
	lb      *loadbalancer.LB
}

func newInfra(privateMax int, flavorSessions int, lbMutate func(*loadbalancer.Config)) (*infraHarness, error) {
	clk := clock.NewSimulated(epoch)
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: privateMax,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		return nil, err
	}
	public, err := cloud.NewProvider(cloud.Config{
		Name: "aws", Kind: cloud.Public, MaxInstances: -1,
		BootDelay: 90 * time.Second, AddrPrefix: "54.0.0.", Clock: clk,
	})
	if err != nil {
		return nil, err
	}
	multi, err := crosscloud.New(crosscloud.PrivateFirst{}, private, public)
	if err != nil {
		return nil, err
	}
	brk, err := broker.New(clk, nil)
	if err != nil {
		return nil, err
	}
	flavor := cloud.DefaultFlavor()
	flavor.MaxSessions = flavorSessions
	cfg := loadbalancer.Config{
		Multi: multi, Broker: brk, Clock: clk,
		Image:  cloud.Image{ID: "svc-v1", Kind: cloud.Streamlined, Services: []string{"topmodel"}},
		Flavor: flavor, Interval: 10 * time.Second,
	}
	if lbMutate != nil {
		lbMutate(&cfg)
	}
	lb, err := loadbalancer.New(cfg)
	if err != nil {
		return nil, err
	}
	return &infraHarness{clk: clk, private: private, public: public, multi: multi, brk: brk, lb: lb}, nil
}

// settle advances simulated time and ticks the LB.
func (h *infraHarness) settle(n int, step time.Duration) {
	for i := 0; i < n; i++ {
		h.clk.Advance(step)
		h.lb.Tick()
	}
}

// E4Cloudburst reproduces the paper's cloudbursting narrative: private by
// default, public on saturation, reversed on underuse. The table samples
// instance counts and cost through a load ramp and drain.
func E4Cloudburst() (*Table, error) {
	h, err := newInfra(2, 2, nil) // private capacity: 2 instances x 2 sessions
	if err != nil {
		return nil, fmt.Errorf("building infra: %w", err)
	}
	t := &Table{
		ID:    "E4",
		Title: "Cloudbursting under a load ramp (private capacity: 4 sessions)",
		Columns: []string{
			"phase", "users", "private", "public", "pending", "publicCost$",
		},
		Notes: []string{
			"public instances appear only after private saturates, and disappear after the drain",
			"the final phase serves all remaining users from the private cloud (reversal)",
		},
	}
	sample := func(phase string, users int) {
		priv, pub := h.multi.CountByKind()
		t.Rows = append(t.Rows, []string{
			phase, strconv.Itoa(users),
			strconv.Itoa(priv), strconv.Itoa(pub),
			strconv.Itoa(h.brk.PendingCount()),
			fmt.Sprintf("%.3f", h.public.CostAccrued()),
		})
	}

	h.settle(3, 45*time.Second) // warm floor
	sample("warm", 0)

	var sessions []broker.Session
	connect := func(n int) {
		for i := 0; i < n; i++ {
			s, err := h.brk.Connect("user", "topmodel")
			if err == nil {
				sessions = append(sessions, s)
			}
		}
	}
	connect(3)
	h.settle(4, 45*time.Second)
	sample("ramp-1 (within private)", 3)

	connect(6) // total 9 > 4 private slots: must burst
	h.settle(6, 45*time.Second)
	sample("ramp-2 (burst)", 9)

	// Drain to 2 users.
	for _, s := range sessions[:7] {
		if err := h.brk.Disconnect(s.ID); err != nil {
			return nil, fmt.Errorf("disconnect: %w", err)
		}
	}
	h.settle(8, 45*time.Second)
	sample("drain (reversal)", 2)

	// Sanity: the shape the paper claims.
	privAtBurst := t.Rows[2][2]
	pubAtBurst := t.Rows[2][3]
	pubAtDrain := t.Rows[3][3]
	if privAtBurst != "2" || pubAtBurst == "0" {
		return nil, fmt.Errorf("burst shape wrong (private=%s public=%s): %w", privAtBurst, pubAtBurst, ErrExperiment)
	}
	if pubAtDrain != "0" {
		return nil, fmt.Errorf("reversal did not reclaim public instances (%s left): %w", pubAtDrain, ErrExperiment)
	}
	return t, nil
}

// E5Malfunction reproduces malfunction detection and replacement for both
// failure signatures the paper names.
func E5Malfunction() (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Malfunction detection and session-preserving replacement",
		Columns: []string{
			"failure", "detectionTicks", "replaced", "sessionLost", "sessionServedAfter",
		},
		Notes: []string{
			"detection needs 3 consecutive suspect observations (SuspectTicks=3)",
			"sessions are migrated or re-queued, never lost",
		},
	}
	for _, mode := range []cloud.DegradedMode{cloud.StuckCPU, cloud.SilentNIC} {
		h, err := newInfra(4, 4, nil)
		if err != nil {
			return nil, fmt.Errorf("building infra: %w", err)
		}
		h.settle(2, 45*time.Second)
		s, err := h.brk.Connect("victim", "topmodel")
		if err != nil {
			return nil, fmt.Errorf("connect: %w", err)
		}
		if s.State != broker.Active {
			h.settle(2, 45*time.Second)
			s, _ = h.brk.Session(s.ID)
		}
		bad, err := h.private.Get(s.InstanceID)
		if err != nil {
			return nil, fmt.Errorf("victim instance: %w", err)
		}
		bad.Inject(mode)

		detected := -1
		for tick := 1; tick <= 12; tick++ {
			if mode == cloud.SilentNIC {
				// Traffic keeps flowing so the NIC silence is observable.
				_ = bad.ServeRequest(2048, 8192)
			}
			h.settle(1, 45*time.Second)
			if h.lb.Replaced() > 0 {
				detected = tick
				break
			}
		}
		h.settle(4, 45*time.Second) // give the replacement time to serve
		after, err := h.brk.Session(s.ID)
		if err != nil {
			return nil, fmt.Errorf("session after: %w", err)
		}
		lost := "no"
		if after.State == broker.Closed {
			lost = "yes"
		}
		served := "no"
		if after.State == broker.Active && after.InstanceID != bad.ID() {
			served = "yes"
		}
		t.Rows = append(t.Rows, []string{
			mode.String(), strconv.Itoa(detected), strconv.Itoa(h.lb.Replaced()), lost, served,
		})
		if detected < 0 || served != "yes" {
			return nil, fmt.Errorf("%v not handled (detected=%d served=%s): %w", mode, detected, served, ErrExperiment)
		}
	}
	return t, nil
}

// E8FlashCrowd reproduces the flash-crowd discussion: time-to-service
// percentiles under three management strategies when 50 users arrive at
// once.
func E8FlashCrowd() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Flash crowd (50 simultaneous users): time-to-service by strategy",
		Columns: []string{
			"strategy", "served", "p50", "p95", "max",
		},
		Notes: []string{
			"static = no elasticity (control loop disabled after warm-up)",
			"prewarmed elasticity cuts the boot delay out of the tail, as the paper suggests",
		},
	}
	const users = 50
	horizon := 30 * time.Minute

	type strategy struct {
		name    string
		prewarm int
		elastic bool
	}
	for _, st := range []strategy{
		{"static (1 warm instance)", 1, false},
		{"elastic", 1, true},
		{"elastic + prewarmed (8)", 8, true},
	} {
		h, err := newInfra(3, 4, func(c *loadbalancer.Config) {
			c.MinInstances = st.prewarm
		})
		if err != nil {
			return nil, fmt.Errorf("building infra: %w", err)
		}
		h.settle(4, 45*time.Second) // warm-up

		var ids []string
		for i := 0; i < users; i++ {
			s, err := h.brk.Connect("user"+strconv.Itoa(i), "topmodel")
			if err != nil {
				return nil, fmt.Errorf("connect: %w", err)
			}
			ids = append(ids, s.ID)
		}
		// Run the horizon.
		steps := int(horizon / (15 * time.Second))
		for i := 0; i < steps; i++ {
			h.clk.Advance(15 * time.Second)
			if st.elastic {
				if i%2 == 0 { // LB interval 30s per two steps
					h.lb.Tick()
				}
			} else {
				h.brk.AssignPending() // static still binds to existing capacity
			}
		}
		var waits []time.Duration
		served := 0
		for _, id := range ids {
			s, err := h.brk.Session(id)
			if err != nil {
				return nil, fmt.Errorf("session %s: %w", id, err)
			}
			if s.State == broker.Active {
				served++
				waits = append(waits, s.ActivatedAt.Sub(s.CreatedAt))
			}
		}
		p50, p95, maxW := percentiles(waits)
		t.Rows = append(t.Rows, []string{
			st.name,
			fmt.Sprintf("%d/%d", served, users),
			fmtDur(p50), fmtDur(p95), fmtDur(maxW),
		})
	}
	return t, nil
}

func percentiles(ds []time.Duration) (p50, p95, max time.Duration) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.5), at(0.95), sorted[len(sorted)-1]
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Second).String()
}

// E14Bundles reproduces the streamlined-bundle vs incubator comparison
// (paper Section IV-D): time from launch to serving for each image class.
func E14Bundles() (*Table, error) {
	clk := clock.NewSimulated(epoch)
	provider, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: 10,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		return nil, fmt.Errorf("building provider: %w", err)
	}
	t := &Table{
		ID:    "E14",
		Title: "Streamlined execution bundle vs generic incubator: time to serving",
		Columns: []string{
			"imageKind", "bootToRunning", "relative",
		},
		Notes: []string{
			"incubators carry model provisioning time; streamlined bundles are pre-baked",
			"\"This has some effect on execution performance when compared to a streamlined execution unit\" (Section IV-D)",
		},
	}
	images := []cloud.Image{
		{ID: "topmodel-morland-v1", Kind: cloud.Streamlined, Services: []string{"topmodel"}},
		{ID: "incubator-v1", Kind: cloud.Incubator, ExtraBootDelay: 4 * time.Minute},
	}
	var base time.Duration
	for i, img := range images {
		inst, err := provider.Launch(img, cloud.DefaultFlavor())
		if err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
		start := clk.Now()
		var took time.Duration
		for step := 0; step < 1000; step++ {
			if inst.State() == cloud.StateRunning {
				took = clk.Now().Sub(start)
				break
			}
			clk.Advance(time.Second)
		}
		if i == 0 {
			base = took
		}
		rel := "1.0x"
		if i > 0 && base > 0 {
			rel = fmt.Sprintf("%.1fx", float64(took)/float64(base))
		}
		t.Rows = append(t.Rows, []string{img.Kind.String(), fmtDur(took), rel})
	}
	return t, nil
}

// E1EndToEnd walks the Fig. 1 data flow through a live portal and times
// each hop.
func E1EndToEnd() (*Table, error) {
	clk := clock.NewSimulated(epoch)
	cfg := core.DefaultConfig(clk)
	cfg.ForcingDays = 30
	obs, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building observatory: %w", err)
	}
	p, err := portal.New(obs)
	if err != nil {
		return nil, fmt.Errorf("building portal: %w", err)
	}
	obs.Start()
	defer obs.Stop()
	clk.Advance(3 * time.Hour) // sensors sampling, instances warm
	srv := httptest.NewServer(p)
	defer srv.Close()

	t := &Table{
		ID:    "E1",
		Title: "End-to-end data flow (Fig. 1): per-hop wall-clock latency",
		Columns: []string{
			"hop", "status", "latency",
		},
		Notes: []string{
			"the full browser->portal->RB->instance->WPS->hydrograph chain completes",
		},
	}
	client := journey.NewClient(srv.URL)
	hops := []struct {
		name string
		do   func() error
	}{
		{"portal health", func() error { return client.GetJSON("/healthz", nil) }},
		{"map marker layer", func() error { return client.GetJSON("/map/layers", nil) }},
		{"RB session connect", func() error {
			return client.PostJSON("/sessions/connect?user=e1&service=topmodel", "", nil)
		}},
		{"live sensor reading", func() error {
			return client.GetJSON("/sensors/morland-level-1/latest", nil)
		}},
		{"WPS model execute", func() error {
			_, err := client.GetRaw("/wps?service=WPS&request=Execute&identifier=topmodel&datainputs=catchment%3Dmorland")
			return err
		}},
		{"widget model run + hydrograph", func() error {
			return client.PostJSON("/widgets/model/run",
				`{"catchment":"morland","model":"topmodel","scenario":"baseline"}`, nil)
		}},
	}
	for _, hop := range hops {
		start := time.Now()
		err := hop.do()
		lat := time.Since(start)
		status := "ok"
		if err != nil {
			status = "FAIL: " + err.Error()
		}
		t.Rows = append(t.Rows, []string{hop.name, status, lat.Round(time.Microsecond).String()})
		if err != nil {
			return nil, fmt.Errorf("hop %q: %v: %w", hop.name, err, ErrExperiment)
		}
	}
	return t, nil
}

// E9Journeys runs the stakeholder storyboard walker against a live
// portal.
func E9Journeys() (*Table, error) {
	clk := clock.NewSimulated(epoch)
	cfg := core.DefaultConfig(clk)
	cfg.ForcingDays = 30
	obs, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building observatory: %w", err)
	}
	p, err := portal.New(obs)
	if err != nil {
		return nil, fmt.Errorf("building portal: %w", err)
	}
	obs.Start()
	defer obs.Stop()
	clk.Advance(3 * time.Hour)
	srv := httptest.NewServer(p)
	defer srv.Close()

	reports, rate := journey.Run(srv.URL, journey.Personas())
	t := &Table{
		ID:    "E9",
		Title: "Stakeholder journey completability (usability substitute)",
		Columns: []string{
			"persona", "group", "steps", "completed",
		},
		Notes: []string{
			fmt.Sprintf("overall completion rate: %.0f%% (paper reports >75%% satisfaction in workshops)", rate*100),
			"substitution: human satisfaction cannot be re-measured; mechanical completability can",
		},
	}
	for _, rep := range reports {
		done := "yes"
		if !rep.Completed {
			done = "NO"
		}
		t.Rows = append(t.Rows, []string{
			rep.Persona, rep.Group, strconv.Itoa(len(rep.Steps)), done,
		})
	}
	if rate < 0.75 {
		return nil, fmt.Errorf("completion rate %.0f%% below the paper's 75%%: %w", rate*100, ErrExperiment)
	}
	return t, nil
}
