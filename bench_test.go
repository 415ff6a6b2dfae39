package evop

// One benchmark per reproduction experiment (see DESIGN.md's experiment
// index and EXPERIMENTS.md for recorded outputs), plus micro-benchmarks
// for the hot paths (model step loop, routing, WebSocket framing, terrain
// derivation, parallel Monte Carlo).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"evop/internal/broker"
	"evop/internal/catchment"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/core"
	"evop/internal/experiments"
	"evop/internal/hydro"
	"evop/internal/hydro/calibrate"
	"evop/internal/hydro/fuse"
	"evop/internal/hydro/topmodel"
	"evop/internal/loadbalancer"
	"evop/internal/metrics"
	"evop/internal/resilience"
	"evop/internal/runcache"
	"evop/internal/sched"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.All()[id]
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1EndToEnd(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Scenarios(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3RESTvsStateful(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Cloudburst(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5Malfunction(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6PushVsPoll(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7Elasticity(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8FlashCrowd(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Journeys(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Calibration(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11Fusion(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Workflow(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE14Bundles(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15Quality(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16FUSEEnsemble(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17Sensitivity(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18Diurnal(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19Drought(b *testing.B)       { benchExperiment(b, "E19") }

// Ablation benches (the design choices DESIGN.md calls out).
func BenchmarkA1PlacementPolicy(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2DetectionThreshold(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3RoutingChoice(b *testing.B)      { benchExperiment(b, "A3") }

// --- micro-benchmarks ---

var benchStart = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func benchForcing(b *testing.B, days int) hydro.Forcing {
	b.Helper()
	gen, err := weather.NewGenerator(weather.UKUplandClimate(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rain, err := gen.Rainfall(benchStart, time.Hour, days*24)
	if err != nil {
		b.Fatal(err)
	}
	pet, err := timeseries.Zeros(benchStart, time.Hour, rain.Len())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pet.Len(); i++ {
		pet.SetAt(i, 0.05)
	}
	return hydro.Forcing{Rain: rain, PET: pet}
}

func benchTI(b *testing.B) *catchment.TIDistribution {
	b.Helper()
	c, ok := catchment.LEFTCatchments().Get("morland")
	if !ok {
		b.Fatal("morland missing")
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		b.Fatal(err)
	}
	return ti
}

// BenchmarkTOPMODELYearFresh measures one 365-day hourly TOPMODEL
// simulation (8760 steps x 30 TI classes) through Run, as every caller
// runs it: pooled scratch plus the one series the caller keeps.
func BenchmarkTOPMODELYearFresh(b *testing.B) {
	ti := benchTI(b)
	f := benchForcing(b, 365)
	m, err := topmodel.New(topmodel.DefaultParams(), ti)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTOPMODELSlider measures one portal slider run: a 120-day
// hourly TOPMODEL simulation through Run on one of the three LEFT
// catchments' standard forcing records, with M, LnTe, SRMax and TD drawn
// from the model-explore sliders' ranges. The op cycles through 60
// seeded runs, 20 per catchment.
func BenchmarkTOPMODELSlider(b *testing.B) {
	cfg := core.DefaultConfig(clock.NewSimulated(benchStart))
	cfg.ForcingDays = 120
	o, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Stop)
	type run struct {
		m *topmodel.Model
		f hydro.Forcing
	}
	var runs []run
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		for _, id := range []string{"morland", "tarland", "machynlleth"} {
			c, ok := o.Catchments.Get(id)
			if !ok {
				b.Fatalf("%s missing", id)
			}
			ti, err := c.TopoIndexDistribution()
			if err != nil {
				b.Fatal(err)
			}
			f, err := o.Forcing(id)
			if err != nil {
				b.Fatal(err)
			}
			p := topmodel.DefaultParams()
			p.M = 10 + 40*rng.Float64()
			p.LnTe = 4 + 3*rng.Float64()
			p.SRMax = 20 + 40*rng.Float64()
			p.TD = 0.5 + 4*rng.Float64()
			m, err := topmodel.New(p, ti)
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, run{m, f})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		if _, err := r.m.Run(r.f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFUSEYear measures one 365-day run of a routed FUSE structure.
func BenchmarkFUSEYear(b *testing.B) {
	f := benchForcing(b, 365)
	m, err := fuse.New(fuse.Decisions{
		Upper: fuse.UpperTensionFree, Perc: fuse.PercWaterContent,
		Base: fuse.BaseParallel, Routing: fuse.RouteGammaUH,
	}, fuse.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFUSEEnsembleSeq measures the full 24-structure FUSE ensemble
// on a 90-day record run sequentially inline — the pre-scheduler
// baseline shape.
func BenchmarkFUSEEnsembleSeq(b *testing.B) {
	f := benchForcing(b, 90)
	decs := fuse.AllDecisions()
	params := fuse.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fuse.RunEnsembleOn(context.Background(), nil, decs, params, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFUSEEnsembleParallel is the same ensemble fanned out across
// the shared compute pool (GOMAXPROCS workers, pooled scratch). The
// result is bit-identical to the sequential run; on a multi-core host
// the wall-clock divides by the worker count.
func BenchmarkFUSEEnsembleParallel(b *testing.B) {
	f := benchForcing(b, 90)
	decs := fuse.AllDecisions()
	params := fuse.DefaultParams()
	pool, err := sched.New(sched.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fuse.RunEnsembleOn(context.Background(), pool, decs, params, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFUSEPortalEnsemble is the portal's FUSE run: its three
// routed structures on the standard 120-day record, on the shared pool.
// It allocates the mean and a few small per-structure constants.
func BenchmarkFUSEPortalEnsemble(b *testing.B) {
	f := benchForcing(b, 120)
	decs := []fuse.Decisions{
		{Upper: fuse.UpperSingle, Perc: fuse.PercFieldCap, Base: fuse.BaseLinear, Routing: fuse.RouteGammaUH},
		{Upper: fuse.UpperTensionFree, Perc: fuse.PercWaterContent, Base: fuse.BasePower, Routing: fuse.RouteGammaUH},
		{Upper: fuse.UpperTensionFree, Perc: fuse.PercFieldCap, Base: fuse.BaseParallel, Routing: fuse.RouteGammaUH},
	}
	params := fuse.DefaultParams()
	pool, err := sched.New(sched.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fuse.RunEnsembleOn(context.Background(), pool, decs, params, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNationalSweep measures the multi-catchment quality
// aggregation (every catchment x every scenario) on the observatory's
// shared pool. The first iteration pays the simulations; the steady
// state measures the sweep machinery over run-cache hits, as the portal
// sees for repeat policy queries.
func BenchmarkNationalSweep(b *testing.B) {
	o := benchObservatory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totals, err := o.RunNationalQualityContext(context.Background(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(totals) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkTerrainDerivation measures DEM generation + pit filling + D8
// routing + TI binning for a 64x64 catchment.
func BenchmarkTerrainDerivation(b *testing.B) {
	cfg := catchment.DefaultTerrain()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dem, err := catchment.GenerateDEM(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dem.FillPits()
		flow, err := catchment.ComputeFlow(dem)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.TIDistribution(30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo100 measures a 100-run parallel calibration sweep.
func BenchmarkMonteCarlo100(b *testing.B) {
	ti := benchTI(b)
	f := benchForcing(b, 30)
	truth, err := topmodel.New(topmodel.DefaultParams(), ti)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := truth.Run(f)
	if err != nil {
		b.Fatal(err)
	}
	cfg := calibrate.MCConfig{
		Factory: func(vals []float64) (hydro.Model, error) {
			p := topmodel.DefaultParams()
			p.M, p.LnTe = vals[0], vals[1]
			return topmodel.New(p, ti)
		},
		Ranges: []calibrate.Range{
			{Name: "M", Lo: 5, Hi: 100},
			{Name: "LnTe", Lo: 2, Hi: 8},
		},
		Forcing: f, Observed: obs, N: 100, Seed: 1,
		KeepSimsAbove: math.Inf(1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibrate.MonteCarlo(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObservatory builds an observatory with a short forcing record for
// cache benchmarks.
func benchObservatory(b *testing.B) *core.Observatory {
	b.Helper()
	cfg := core.DefaultConfig(clock.NewSimulated(benchStart))
	cfg.ForcingDays = 30
	o, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkModelRunCacheMiss measures the cold path: every request is a
// distinct key, so each op pays a full simulation plus cache insertion.
func BenchmarkModelRunCacheMiss(b *testing.B) {
	o := benchObservatory(b)
	params := make([]topmodel.Params, 512)
	for i := range params {
		p := topmodel.DefaultParams()
		p.M = 5 + float64(i)*0.13
		params[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := o.RunModelCachedContext(context.Background(), core.RunRequest{
			CatchmentID: "morland", Model: "topmodel",
			TOPMODELParams: &params[i%len(params)],
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelRunCacheHit measures the warm path: repeated identical
// requests served from the LRU without touching the model kernel.
func BenchmarkModelRunCacheHit(b *testing.B) {
	o := benchObservatory(b)
	req := core.RunRequest{CatchmentID: "morland", Model: "topmodel"}
	if _, _, err := o.RunModelCachedContext(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := o.RunModelCachedContext(context.Background(), req); err != nil || out != runcache.Hit {
			b.Fatalf("outcome = %v err = %v", out, err)
		}
	}
}

// BenchmarkModelRunCacheCoalesced measures concurrent identical requests
// racing through the singleflight path: RunParallel goroutines hammer one
// key that is purged each iteration batch, so ops resolve as a mix of one
// miss plus coalesced/hit shares.
func BenchmarkModelRunCacheCoalesced(b *testing.B) {
	o := benchObservatory(b)
	req := core.RunRequest{CatchmentID: "morland", Model: "topmodel"}
	if _, _, err := o.RunModelCachedContext(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := o.RunModelCachedContext(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFlotEncode measures the portal's hot serialisation path:
// streaming a 120-day hourly TOPMODEL discharge, the /widgets/model/run
// hydrograph, through Series.WriteFlot. Every value is a full-precision
// float, so it times the shortest-digit kernel, not zeros; ns/pair is
// the cost of one [ms,v] pair.
func BenchmarkFlotEncode(b *testing.B) {
	m, err := topmodel.New(topmodel.DefaultParams(), benchTI(b))
	if err != nil {
		b.Fatal(err)
	}
	q, err := m.Run(benchForcing(b, 120))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.WriteFlot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*q.Len()), "ns/pair")
}

// BenchmarkBrokerChurn measures session churn — one connect plus (once a
// rolling window fills) one disconnect per op — against a broker driven by
// a running load-balancer control loop on a simulated clock. The broker's
// structures are O(live + recently closed), so per-op cost and the
// reported ns/tick must stay flat as b.N (historical session count)
// grows; before the live-list/per-instance-index rework both grew
// linearly with every session ever created.
func BenchmarkBrokerChurn(b *testing.B) {
	clk := clock.NewSimulated(benchStart)
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: 8,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	multi, err := crosscloud.New(crosscloud.PrivateFirst{}, private)
	if err != nil {
		b.Fatal(err)
	}
	brk, err := broker.New(clk, nil)
	if err != nil {
		b.Fatal(err)
	}
	lb, err := loadbalancer.New(loadbalancer.Config{
		Multi: multi, Broker: brk, Clock: clk,
		Image:  cloud.Image{ID: "svc-v1", Kind: cloud.Streamlined, Services: []string{"topmodel"}},
		Flavor: cloud.DefaultFlavor(), Interval: 10 * time.Second,
		MinInstances: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the floor so connects place immediately.
	for i := 0; i < 4; i++ {
		clk.Advance(45 * time.Second)
		lb.Tick()
	}

	const window = 24 // concurrently open sessions
	var open []string
	var tickTime time.Duration
	ticks := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := brk.Connect("bench", "topmodel")
		if err != nil {
			b.Fatal(err)
		}
		open = append(open, s.ID)
		if len(open) > window {
			if err := brk.Disconnect(open[0]); err != nil {
				b.Fatal(err)
			}
			open = open[1:]
		}
		if i%64 == 63 { // a control tick every 64 churn ops
			clk.Advance(10 * time.Second)
			start := time.Now()
			lb.Tick()
			tickTime += time.Since(start)
			ticks++
		}
	}
	b.StopTimer()
	if ticks > 0 {
		b.ReportMetric(float64(tickTime.Nanoseconds())/float64(ticks), "ns/tick")
	}
	if got := brk.LiveCount(); got > window {
		b.Fatalf("LiveCount = %d after churn, want <= %d (closed sessions leaked)", got, window)
	}
}

// BenchmarkBrokerSessionsOn measures the per-instance session view the LB
// reads for every instance on every tick, with a large closed-session
// history behind it.
func BenchmarkBrokerSessionsOn(b *testing.B) {
	clk := clock.NewSimulated(benchStart)
	provider, err := cloud.NewProvider(cloud.Config{
		Name: "p", Kind: cloud.Private, MaxInstances: 2,
		BootDelay: time.Second, AddrPrefix: "10.0.0.", Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := provider.Launch(cloud.Image{ID: "svc", Kind: cloud.Streamlined, Services: []string{"topmodel"}}, cloud.DefaultFlavor())
	if err != nil {
		b.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	brk, err := broker.New(clk, nil)
	if err != nil {
		b.Fatal(err)
	}
	// 50k sessions of history, 4 still live on the instance.
	for i := 0; i < 50_000; i++ {
		s, err := brk.Connect("hist", "topmodel")
		if err != nil {
			b.Fatal(err)
		}
		if err := brk.Disconnect(s.ID); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		s, err := brk.Connect("live", "topmodel")
		if err != nil {
			b.Fatal(err)
		}
		if err := brk.Migrate(s.ID, inst, "bind"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := brk.SessionsOn(inst.ID()); len(got) != 4 {
			b.Fatalf("SessionsOn = %d, want 4", len(got))
		}
	}
}

// BenchmarkUHRouting measures unit-hydrograph convolution over a year of
// hourly flow.
func BenchmarkUHRouting(b *testing.B) {
	f := benchForcing(b, 365)
	uh, err := hydro.TriangularUH(3, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uh.Route(f.Rain)
	}
}

// BenchmarkLBTickFaulty measures one load-balancer control tick against
// fault-injecting providers with circuit breakers enabled: every tick pays
// for health observation, breaker probing, the terminate-retry queue and
// occasional failovers, on top of the ordinary scaling work. This is the
// robustness overhead budget — it should stay within the same order as a
// tick against healthy providers.
func BenchmarkLBTickFaulty(b *testing.B) {
	clk := clock.NewSimulated(benchStart)
	private, err := cloud.NewProvider(cloud.Config{
		Name: "openstack", Kind: cloud.Private, MaxInstances: 8,
		BootDelay: 30 * time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	public, err := cloud.NewProvider(cloud.Config{
		Name: "aws", Kind: cloud.Public, MaxInstances: -1,
		BootDelay: 90 * time.Second, AddrPrefix: "54.0.0.", Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	fpriv, err := cloud.NewFaultyProvider(private, clk, cloud.FaultSpec{
		Seed: 1, LaunchErrorRate: 0.1, TerminateErrorRate: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	fpub, err := cloud.NewFaultyProvider(public, clk, cloud.FaultSpec{
		Seed: 2, LaunchErrorRate: 0.05, TerminateErrorRate: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	multi, err := crosscloud.New(crosscloud.PrivateFirst{}, fpriv, fpub)
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.NewRegistry(clk)
	if err := multi.EnableBreakers(resilience.BreakerConfig{Clock: clk, Metrics: reg}); err != nil {
		b.Fatal(err)
	}
	brk, err := broker.New(clk, nil)
	if err != nil {
		b.Fatal(err)
	}
	lb, err := loadbalancer.New(loadbalancer.Config{
		Multi: multi, Broker: brk, Clock: clk,
		Image:  cloud.Image{ID: "svc-v1", Kind: cloud.Streamlined, Services: []string{"topmodel"}},
		Flavor: cloud.DefaultFlavor(), Interval: 10 * time.Second,
		MinInstances: 4, Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ { // warm the floor through the fault noise
		clk.Advance(45 * time.Second)
		lb.Tick()
	}
	var open []string
	for i := 0; i < 12; i++ {
		s, err := brk.Connect("bench", "topmodel")
		if err != nil {
			b.Fatal(err)
		}
		open = append(open, s.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Churn one session per tick so scaling and idle-reclaim paths
		// (and their terminate retries) stay exercised.
		if err := brk.Disconnect(open[i%len(open)]); err != nil {
			b.Fatal(err)
		}
		clk.Advance(10 * time.Second)
		lb.Tick()
		s, err := brk.Connect("bench", "topmodel")
		if err != nil {
			b.Fatal(err)
		}
		open[i%len(open)] = s.ID
	}
	b.StopTimer()
	b.ReportMetric(float64(reg.Counter("evop_lb_terminate_retries_total", "").Value()), "term-retries")
	b.ReportMetric(float64(reg.Counter("evop_cloud_failovers_total", "").Value()), "failovers")
}
