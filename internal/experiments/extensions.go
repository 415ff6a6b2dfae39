package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"evop/internal/broker"
	"evop/internal/catchment"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/core"
	"evop/internal/hydro/topmodel"
	"evop/internal/loadbalancer"
	"evop/internal/scenario"
)

// E15Quality is the extension the paper's final workshops requested:
// "what would be the impact of this scenario on catchment water quality".
// It runs the water-quality export model under each land-use scenario.
func E15Quality() (*Table, error) {
	clk := clock.NewSimulated(epoch)
	cfg := core.DefaultConfig(clk)
	cfg.ForcingDays = 60
	obs, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building observatory: %w", err)
	}
	t := &Table{
		ID:    "E15",
		Title: "Water-quality impact by land-use scenario (Morland, 60-day record)",
		Columns: []string{
			"scenario", "sediment(t)", "phosphorus(kg)", "nitrate(kg)", "sedVsBase", "pVsBase",
		},
		Notes: []string{
			"extension: the storyboard stakeholders proposed in the paper's final workshops (Section VI)",
			"compaction mobilises sediment and P; afforestation and attenuation features buffer both",
		},
	}
	var sedOrder []float64
	for _, sc := range scenario.All() {
		res, err := obs.RunQualityContext(context.Background(), "morland", sc.ID)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.ID, err)
		}
		t.Rows = append(t.Rows, []string{
			sc.Name,
			fmt.Sprintf("%.1f", res.Loads.SedimentTonnes),
			fmt.Sprintf("%.1f", res.Loads.PhosphorusKg),
			fmt.Sprintf("%.1f", res.Loads.NitrateKg),
			fmt.Sprintf("%+.0f%%", res.SedimentChange*100),
			fmt.Sprintf("%+.0f%%", res.PhosphorusChange*100),
		})
		sedOrder = append(sedOrder, res.Loads.SedimentTonnes)
	}
	// Order check: afforestation (1) < baseline (0) < compaction (2).
	if !(sedOrder[1] < sedOrder[0] && sedOrder[0] < sedOrder[2]) {
		return nil, fmt.Errorf("sediment ordering wrong: %v: %w", sedOrder, ErrExperiment)
	}
	return t, nil
}

// A1PlacementPolicy is an ablation of the cross-cloud placement policy
// (DESIGN.md calls out the paper's example of swapping "private until
// saturation" for "streamlined to AWS, experimental to private"): the
// same workload under both policies, comparing where instances land and
// what the lease costs.
func A1PlacementPolicy() (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "Ablation: placement policy (same 6-instance workload, mixed image kinds)",
		Columns: []string{
			"policy", "privateInstances", "publicInstances", "leaseCost$/h",
		},
		Notes: []string{
			"private-first minimises cost; by-image-kind buys public isolation for production bundles",
			"the policy is swappable at runtime (crosscloud.SetPolicy), as the paper required",
		},
	}
	for _, policy := range []crosscloud.Policy{crosscloud.PrivateFirst{}, crosscloud.ByImageKind{}} {
		clk := clock.NewSimulated(epoch)
		private, err := cloud.NewProvider(cloud.Config{
			Name: "openstack", Kind: cloud.Private, MaxInstances: 4,
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
		multi, err := crosscloud.New(policy, private, public)
		if err != nil {
			return nil, err
		}
		// Workload: 3 streamlined bundles + 3 incubator images.
		for i := 0; i < 3; i++ {
			if _, err := multi.Launch(cloud.Image{ID: fmt.Sprintf("bundle-%d", i), Kind: cloud.Streamlined},
				cloud.DefaultFlavor()); err != nil {
				return nil, fmt.Errorf("launch bundle: %w", err)
			}
			if _, err := multi.Launch(cloud.Image{ID: fmt.Sprintf("incubator-%d", i), Kind: cloud.Incubator},
				cloud.DefaultFlavor()); err != nil {
				return nil, fmt.Errorf("launch incubator: %w", err)
			}
		}
		clk.Advance(time.Hour)
		priv, pub := multi.CountByKind()
		t.Rows = append(t.Rows, []string{
			policy.Name(),
			strconv.Itoa(priv),
			strconv.Itoa(pub),
			fmt.Sprintf("%.2f", multi.CostAccrued()),
		})
	}
	return t, nil
}

// A2DetectionThreshold ablates the LB's SuspectTicks threshold: lower
// detects faster but risks replacing instances on transient spikes.
func A2DetectionThreshold() (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: malfunction detection threshold (SuspectTicks)",
		Columns: []string{
			"suspectTicks", "detectionTicks", "falsePositive(1-tick spike)",
		},
		Notes: []string{
			"the default (3) detects a real fault within 3 control periods and ignores 1-tick CPU spikes",
			"threshold 1 is fastest but kills a healthy instance on a transient spike",
		},
	}
	for _, ticks := range []int{1, 3, 5} {
		// Real fault: detection latency.
		h, err := newInfra(4, 4, func(c *loadbalancer.Config) { c.SuspectTicks = ticks })
		if err != nil {
			return nil, err
		}
		h.settle(2, 45*time.Second)
		s, err := h.brk.Connect("victim", "topmodel")
		if err != nil {
			return nil, err
		}
		if s.State != broker.Active {
			h.settle(2, 45*time.Second)
			s, _ = h.brk.Session(s.ID)
		}
		bad, err := h.private.Get(s.InstanceID)
		if err != nil {
			return nil, err
		}
		bad.Inject(cloud.StuckCPU)
		detected := -1
		for tick := 1; tick <= 10; tick++ {
			h.settle(1, 45*time.Second)
			if h.lb.Replaced() > 0 {
				detected = tick
				break
			}
		}

		// Transient spike: inject for one tick only, then recover.
		h2, err := newInfra(4, 4, func(c *loadbalancer.Config) { c.SuspectTicks = ticks })
		if err != nil {
			return nil, err
		}
		h2.settle(2, 45*time.Second)
		s2, err := h2.brk.Connect("spiky", "topmodel")
		if err != nil {
			return nil, err
		}
		got, _ := h2.brk.Session(s2.ID)
		inst, err := h2.private.Get(got.InstanceID)
		if err != nil {
			return nil, err
		}
		inst.Inject(cloud.StuckCPU)
		h2.settle(1, 45*time.Second)
		inst.Inject(cloud.Healthy)
		h2.settle(5, 45*time.Second)
		falsePos := "no"
		if h2.lb.Replaced() > 0 {
			falsePos = "YES"
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(ticks), strconv.Itoa(detected), falsePos,
		})
	}
	return t, nil
}

// A3RoutingChoice ablates TOPMODEL's channel routing (the unit-hydrograph
// shape), isolating how much of the storage scenario's effect is pure
// routing.
func A3RoutingChoice() (*Table, error) {
	ti, c, err := morlandTI()
	if err != nil {
		return nil, err
	}
	forcing, stormAt, err := stormForcing(c.ClimateSeed, 30)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "A3",
		Title: "Ablation: channel routing (unit hydrograph geometry) on the same storm",
		Columns: []string{
			"routing(tp/base steps)", "peak(mm/h)", "timeToPeak", "volume(mm)",
		},
		Notes: []string{
			"volume is conserved across routings; only peak and timing change",
			"this isolates the mechanism behind the attenuation-features scenario",
		},
	}
	type routing struct{ tp, base int }
	var vols []float64
	for _, r := range []routing{{1, 4}, {3, 12}, {6, 36}, {12, 72}} {
		params := topmodelDefaultWithRouting(r.tp, r.base)
		m, err := newTopmodel(params, ti)
		if err != nil {
			return nil, err
		}
		q, err := m.Run(forcing)
		if err != nil {
			return nil, err
		}
		win, err := q.Slice(stormAt, stormAt.Add(72*time.Hour))
		if err != nil {
			return nil, err
		}
		st := win.Summarise()
		vols = append(vols, q.Summarise().Sum)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d/%d", r.tp, r.base),
			fmt.Sprintf("%.3f", st.Max),
			win.TimeAt(st.ArgMax).Sub(stormAt).String(),
			fmt.Sprintf("%.1f", q.Summarise().Sum),
		})
	}
	// Mass conservation across routings, allowing for the mass a longer
	// unit hydrograph pushes past the end of the record (<2% here).
	tol := vols[0] * 0.02
	for i := 1; i < len(vols); i++ {
		if diff := vols[i] - vols[0]; diff > tol || diff < -tol {
			return nil, fmt.Errorf("routing changed volume by %.2f mm (tol %.2f): %w", diff, tol, ErrExperiment)
		}
	}
	return t, nil
}

func topmodelDefaultWithRouting(tp, base int) topmodel.Params {
	p := topmodel.DefaultParams()
	p.RoutePeakSteps = tp
	p.RouteBaseSteps = base
	return p
}

func newTopmodel(p topmodel.Params, ti *catchment.TIDistribution) (*topmodel.Model, error) {
	return topmodel.New(p, ti)
}
