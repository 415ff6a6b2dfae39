package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evop/internal/catchment"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/hydro"
	"evop/internal/hydro/topmodel"
	"evop/internal/ogc/wps"
	"evop/internal/runcache"
	"evop/internal/scenario"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

var (
	epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	// epochStart is DefaultConfig's forcing start.
	epochStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
)

func newObs(t *testing.T) (*Observatory, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(epoch)
	cfg := DefaultConfig(clk)
	cfg.ForcingDays = 30 // keep tests fast
	o, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o, clk
}

func TestConfigValidate(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	base := DefaultConfig(clk)
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil clock", func(c *Config) { c.Clock = nil }},
		{"no private capacity", func(c *Config) { c.PrivateCapacity = 0 }},
		{"no interval", func(c *Config) { c.LBInterval = 0 }},
		{"short forcing", func(c *Config) { c.ForcingDays = 1 }},
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

func TestObservatoryAssembly(t *testing.T) {
	o, _ := newObs(t)
	if got := len(o.Catchments.All()); got != 3 {
		t.Fatalf("catchments = %d", got)
	}
	if got := len(o.Network.Sensors()); got != 15 {
		t.Fatalf("sensors = %d, want 15 (5 per catchment)", got)
	}
	// Library: 2 bundles per catchment + 1 incubator.
	if got := len(o.Library.List()); got != 7 {
		t.Fatalf("library entries = %d, want 7", got)
	}
	if got := o.WPS.Processes(); len(got) != 2 {
		t.Fatalf("WPS processes = %v", got)
	}
	// Assets populated.
	if got := len(o.Assets.List("catchments")); got != 3 {
		t.Fatalf("catchment assets = %d", got)
	}
	if got := len(o.Assets.List("sensors")); got != 15 {
		t.Fatalf("sensor assets = %d", got)
	}
	if got := len(o.Assets.List("scenarios")); got != 4 {
		t.Fatalf("scenario assets = %d", got)
	}
	if got := len(o.Assets.List("models")); got != 7 {
		t.Fatalf("model assets = %d", got)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	o, clk := newObs(t)
	o.Start()
	clk.Advance(20 * time.Minute) // past the slowest sensor interval
	if o.LB.Ticks() == 0 {
		t.Fatal("LB never ticked")
	}
	if _, err := o.Network.Latest("morland-level-1"); err != nil {
		t.Fatalf("sensors not sampling: %v", err)
	}
	o.Stop()
	ticks := o.LB.Ticks()
	clk.Advance(time.Minute)
	if o.LB.Ticks() != ticks {
		t.Fatal("LB kept ticking after Stop")
	}
}

func TestForcingCachedAndDeterministic(t *testing.T) {
	o, _ := newObs(t)
	f1, err := o.Forcing("morland")
	if err != nil {
		t.Fatalf("Forcing: %v", err)
	}
	if f1.Rain.Len() != 30*24 {
		t.Fatalf("forcing length = %d", f1.Rain.Len())
	}
	if err := f1.Validate(); err != nil {
		t.Fatalf("forcing invalid: %v", err)
	}
	f2, _ := o.Forcing("morland")
	if f1.Rain != f2.Rain {
		t.Fatal("forcing not cached (new series allocated)")
	}
	// Distinct catchments get distinct climates.
	ft, err := o.Forcing("tarland")
	if err != nil {
		t.Fatalf("Forcing tarland: %v", err)
	}
	if ft.Rain.Summarise().Sum == f1.Rain.Summarise().Sum {
		t.Fatal("catchments share identical rainfall (suspicious)")
	}
	if _, err := o.Forcing("thames"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown catchment err = %v", err)
	}
}

func TestRunModelTOPMODEL(t *testing.T) {
	o, _ := newObs(t)
	res, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "topmodel"})
	if err != nil {
		t.Fatalf("RunModelCachedContext: %v", err)
	}
	if res.Discharge.Len() != 30*24 {
		t.Fatalf("discharge length = %d", res.Discharge.Len())
	}
	if res.PeakMM <= 0 || res.VolumeMM <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.RunoffRatio <= 0 || res.RunoffRatio > 1.3 {
		t.Fatalf("runoff ratio = %v", res.RunoffRatio)
	}
	if res.Scenario != scenario.Baseline || res.Model != "topmodel" {
		t.Fatalf("echo = %s/%s", res.Model, res.Scenario)
	}
	// m3/s conversion is consistent.
	m3s, err := res.DischargeM3S()
	if err != nil {
		t.Fatalf("DischargeM3S: %v", err)
	}
	if m3s.Len() != res.Discharge.Len() {
		t.Fatal("m3/s series length differs")
	}
	c, _ := o.Catchments.Get("morland")
	factor := c.AreaKM2 * 1000 / 3600
	for i := 0; i < m3s.Len(); i++ {
		if want := res.Discharge.At(i) * factor; m3s.At(i) != want {
			t.Fatalf("m3/s[%d] = %v, want %v", i, m3s.At(i), want)
		}
	}
}

// TestRunModelRefusesNonPositiveArea: a catchment whose area cannot
// convert the hydrograph to m3/s is refused, as the conversion itself
// refuses it.
func TestRunModelRefusesNonPositiveArea(t *testing.T) {
	o, _ := newObs(t)
	morland, _ := o.Catchments.Get("morland")
	for _, area := range []float64{0, -1, math.NaN()} {
		id := fmt.Sprintf("area-%v", area)
		if err := o.Catchments.Add(&catchment.Catchment{
			ID: id, AreaKM2: area, ClimateSeed: morland.ClimateSeed, Terrain: morland.Terrain,
		}); err != nil {
			t.Fatal(err)
		}
		_, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: id, Model: "topmodel"})
		if !errors.Is(err, hydro.ErrBadParam) {
			t.Fatalf("area %v: err = %v, want hydro.ErrBadParam", area, err)
		}
	}
}

// TestRunModelRefusesNonFiniteRun: a transmissivity whose exponential
// overflows turns the whole hydrograph NaN; the run is refused as a bad
// request instead of summarised.
func TestRunModelRefusesNonFiniteRun(t *testing.T) {
	o, _ := newObs(t)
	p := topmodel.DefaultParams()
	p.LnTe = 1e308
	_, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "topmodel", TOPMODELParams: &p})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestRunModelScenarioOrdering(t *testing.T) {
	o, _ := newObs(t)
	storm := &weather.DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
	// Place the storm at the end of the driest 5-day stretch so the
	// catchment is not already fully saturated — on saturated ground all
	// land-use scenarios converge (runoff ≈ rainfall), which is physical
	// but uninformative.
	f, err := o.Forcing("morland")
	if err != nil {
		t.Fatalf("Forcing: %v", err)
	}
	const window = 5 * 24
	bestStart, bestSum := window, 1e18
	for start := window; start+48 < f.Rain.Len(); start += 24 {
		sum := 0.0
		for i := start - window; i < start; i++ {
			sum += f.Rain.At(i)
		}
		if sum < bestSum {
			bestSum, bestStart = sum, start
		}
	}
	stormAtHours := bestStart
	stormAt := epochStart.Add(time.Duration(stormAtHours) * time.Hour)
	peaks := make(map[string]float64)
	for _, sc := range []string{scenario.Baseline, scenario.Afforestation, scenario.Compaction} {
		res, _, err := o.RunModelCachedContext(context.Background(), RunRequest{
			CatchmentID: "morland", Model: "topmodel", ScenarioID: sc,
			Storm: storm, StormAtHours: stormAtHours,
		})
		if err != nil {
			t.Fatalf("RunModelCachedContext %s: %v", sc, err)
		}
		// Compare the response to the injected storm specifically, not
		// whichever natural event happens to dominate the record.
		window, err := res.Discharge.Slice(stormAt, stormAt.Add(48*time.Hour))
		if err != nil {
			t.Fatalf("Slice: %v", err)
		}
		peaks[sc] = window.Summarise().Max
	}
	if !(peaks[scenario.Afforestation] < peaks[scenario.Baseline] &&
		peaks[scenario.Baseline] < peaks[scenario.Compaction]) {
		t.Fatalf("peak ordering wrong: %+v", peaks)
	}
}

func TestRunModelFUSE(t *testing.T) {
	o, _ := newObs(t)
	res, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "tarland", Model: "fuse"})
	if err != nil {
		t.Fatalf("RunModelCachedContext fuse: %v", err)
	}
	if res.VolumeMM <= 0 {
		t.Fatalf("fuse volume = %v", res.VolumeMM)
	}
}

func TestRunModelErrors(t *testing.T) {
	o, _ := newObs(t)
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "thames", Model: "topmodel"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown catchment err = %v", err)
	}
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "hec-ras"}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model err = %v", err)
	}
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "topmodel", ScenarioID: "urban"}); !errors.Is(err, scenario.ErrUnknown) {
		t.Fatalf("unknown scenario err = %v", err)
	}
	bad := topmodel.DefaultParams()
	bad.M = -1
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "topmodel", TOPMODELParams: &bad}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// literals maps text inputs to literal process values.
func literals(in map[string]string) map[string]wps.Value {
	out := make(map[string]wps.Value, len(in))
	for k, v := range in {
		out[k] = wps.Literal(v)
	}
	return out
}

func TestWPSProcessExecutes(t *testing.T) {
	o, _ := newObs(t)
	p := &modelProcess{obs: o, model: "topmodel"}
	out, err := p.Execute(context.Background(), literals(map[string]string{
		"catchment": "morland", "scenario": "compaction",
		"stormDepthMm": "50", "stormHours": "6", "stormAtHours": "240",
	}))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["hydrograph"].Series() == nil || out["peakMm"].String() == "" || out["volumeMm"].String() == "" {
		t.Fatalf("outputs = %v", out)
	}
	if len(p.Inputs()) == 0 || len(p.Outputs()) == 0 || p.Title() == "" || p.Abstract() == "" {
		t.Fatal("process metadata empty")
	}
	// The hydrograph output is the cached run's own series, not a copy.
	res, outcome, err := o.RunModelCachedContext(context.Background(), RunRequest{
		CatchmentID: "morland", ScenarioID: "compaction", Model: "topmodel",
		Storm:        &weather.DesignStorm{TotalDepthMM: 50, Duration: 6 * time.Hour, PeakFraction: 0.4},
		StormAtHours: 240,
	})
	if err != nil || outcome != runcache.Hit {
		t.Fatalf("same run from the cache: %v, %v", outcome, err)
	}
	if got := out["hydrograph"].Series(); got != res.Discharge {
		t.Fatalf("hydrograph output %p, want the runcache's series %p", got, res.Discharge)
	}
}

func TestWPSProcessInputErrors(t *testing.T) {
	o, _ := newObs(t)
	p := &modelProcess{obs: o, model: "topmodel"}
	bad := []map[string]string{
		{"catchment": "morland", "stormDepthMm": "abc"},
		{"catchment": "morland", "stormDepthMm": "10", "stormHours": "x"},
		{"catchment": "morland", "stormDepthMm": "10", "stormAtHours": "x"},
		{"catchment": "ghost"},
	}
	for i, inputs := range bad {
		if _, err := p.Execute(context.Background(), literals(inputs)); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

// TestHourCountsBeyondDuration pins that an hour count time.Duration
// cannot hold is refused with ErrBadConfig before any run: multiplied by
// time.Hour, stormHours=5124096 wrapped to a 25-minute storm, and
// stormAtHours=5124144 put the storm at hour 48.4.
func TestHourCountsBeyondDuration(t *testing.T) {
	o, _ := newObs(t)
	var runs atomic.Int64
	o.SetRunHook(func(context.Context, RunRequest) error { runs.Add(1); return nil })
	p := &modelProcess{obs: o, model: "topmodel"}
	for _, inputs := range []map[string]string{
		{"catchment": "morland", "stormDepthMm": "50", "stormHours": "5124096"},
		{"catchment": "morland", "stormDepthMm": "50", "stormAtHours": "5124144"},
		{"catchment": "morland", "stormDepthMm": "50", "stormHours": "-2562048"},
		{"catchment": "morland", "stormDepthMm": "50", "stormAtHours": "-5124144"},
	} {
		if _, err := p.Execute(context.Background(), literals(inputs)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Execute(%v) err = %v, want ErrBadConfig", inputs, err)
		}
	}
	storm := &weather.DesignStorm{TotalDepthMM: 50, Duration: 6 * time.Hour, PeakFraction: 0.4}
	for _, at := range []int{5124144, -5124144, 2562048} {
		req := RunRequest{CatchmentID: "morland", Model: "topmodel", Storm: storm, StormAtHours: at}
		if _, _, err := o.RunModelCachedContext(context.Background(), req); !errors.Is(err, ErrBadConfig) {
			t.Errorf("StormAtHours %d: err = %v, want ErrBadConfig", at, err)
		}
	}
	body := serve(t, o.WPS, http.MethodGet, "/wps?service=WPS&request=Execute&identifier=topmodel"+
		"&datainputs=catchment%3Dmorland%3BstormDepthMm%3D50%3BstormHours%3D5124096", "")
	if !strings.Contains(string(body), "<wps:Value>ProcessFailed</wps:Value>") {
		t.Fatalf("WPS stormHours=5124096:\n%s", body)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("refused requests reached the simulation %d times", n)
	}
	// The largest hour counts that fit are still runs; one past the
	// record is the storm package's to refuse, as before.
	if _, err := p.Execute(context.Background(), literals(map[string]string{
		"catchment": "morland", "stormDepthMm": "50", "stormHours": "2562047"})); errors.Is(err, ErrBadConfig) {
		t.Fatalf("stormHours 2562047 refused by the hour bound: %v", err)
	}
}

// TestHydroStatsSeriesMatchesText pins hydrostats' two inputs to one
// answer, bit for bit: a series read directly and the same series as
// Flot text, NaN, ±Inf, -0 and sub-millisecond steps included.
func TestHydroStatsSeriesMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.MaxFloat64}
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, 1+rng.Intn(300))
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = specials[rng.Intn(len(specials))]
			default:
				vals[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		step := time.Hour
		if trial%3 == 0 {
			step = time.Duration(1 + rng.Intn(2_000_000))
		}
		s := timeseries.MustNew(epochStart.Add(-time.Duration(rng.Int63n(int64(100*365*24*time.Hour)))), step, vals)
		flot, err := s.FlotJSON()
		if err != nil {
			t.Fatalf("FlotJSON: %v", err)
		}
		direct, err := hydroStatsProcess{}.Execute(context.Background(), map[string]wps.Value{"hydrograph": wps.SeriesValue(s)})
		if err != nil {
			t.Fatalf("trial %d series: %v", trial, err)
		}
		parsed, err := hydroStatsProcess{}.Execute(context.Background(), literals(map[string]string{"hydrograph": string(flot)}))
		if err != nil {
			t.Fatalf("trial %d text: %v", trial, err)
		}
		for _, k := range []string{"peakMm", "volumeMm", "meanMm"} {
			if direct[k] != parsed[k] {
				t.Fatalf("trial %d %s: series %q, text %q", trial, k, direct[k].String(), parsed[k].String())
			}
		}
	}
	empty := timeseries.MustNew(epochStart, time.Hour, nil)
	for _, tc := range []struct {
		in   wps.Value
		want string
	}{
		{wps.Value{}, "hydrostats: missing hydrograph input"},
		{wps.Literal("[[1,"), "hydrostats: parsing flot payload: unexpected end of JSON input"},
		{wps.Literal("[]"), "hydrostats: empty hydrograph"},
		{wps.SeriesValue(empty), "hydrostats: empty hydrograph"},
	} {
		_, err := hydroStatsProcess{}.Execute(context.Background(), map[string]wps.Value{"hydrograph": tc.in})
		if err == nil || err.Error() != tc.want {
			t.Errorf("hydrostats(%q) err = %v, want %s", tc.in.String(), err, tc.want)
		}
	}
}

func TestRunQuality(t *testing.T) {
	o, _ := newObs(t)
	res, err := o.RunQualityContext(context.Background(), "morland", "compaction")
	if err != nil {
		t.Fatalf("RunQualityContext: %v", err)
	}
	if res.Scenario != "compaction" {
		t.Fatalf("scenario = %s", res.Scenario)
	}
	if res.Loads.SedimentTonnes <= 0 || res.BaselineLoads.SedimentTonnes <= 0 {
		t.Fatalf("loads = %+v", res)
	}
	if res.SedimentChange <= 0 || res.PhosphorusChange <= 0 {
		t.Fatalf("compaction should raise sediment and P: %+v", res)
	}

	aff, err := o.RunQualityContext(context.Background(), "morland", "afforestation")
	if err != nil {
		t.Fatalf("RunQualityContext afforestation: %v", err)
	}
	if aff.SedimentChange >= 0 {
		t.Fatalf("afforestation sediment change = %v, want negative", aff.SedimentChange)
	}

	// Baseline vs itself is zero change; empty scenario defaults to it.
	base, err := o.RunQualityContext(context.Background(), "morland", "")
	if err != nil {
		t.Fatalf("RunQualityContext baseline: %v", err)
	}
	if base.SedimentChange != 0 || base.PhosphorusChange != 0 || base.NitrateChange != 0 {
		t.Fatalf("baseline change = %+v, want zero", base)
	}
}

func TestRunQualityErrors(t *testing.T) {
	o, _ := newObs(t)
	if _, err := o.RunQualityContext(context.Background(), "thames", "baseline"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown catchment err = %v", err)
	}
	if _, err := o.RunQualityContext(context.Background(), "morland", "urban"); !errors.Is(err, scenario.ErrUnknown) {
		t.Fatalf("unknown scenario err = %v", err)
	}
}

// TestRunNationalQualityMatchesSequential pins the national sweep's
// determinism: the pooled fan-out totals are bit-identical to the
// sequential nested loop over the same catchments and scenarios.
func TestRunNationalQualityMatchesSequential(t *testing.T) {
	o, _ := newObs(t)
	catchments := []string{"morland", "tarland"}
	scenarios := []string{"baseline", "compaction"}
	got, err := o.RunNationalQualityContext(context.Background(), catchments, scenarios)
	if err != nil {
		t.Fatalf("RunNationalQualityContext: %v", err)
	}
	for _, sid := range scenarios {
		nl := got[sid]
		if nl == nil {
			t.Fatalf("scenario %s missing from result", sid)
		}
		var sed, phos, nit float64
		for _, cid := range catchments {
			res, err := o.RunQualityContext(context.Background(), cid, sid)
			if err != nil {
				t.Fatalf("sequential RunQualityContext(%s,%s): %v", cid, sid, err)
			}
			pc := nl.PerCatchment[cid]
			if pc.SedimentTonnes != res.Loads.SedimentTonnes ||
				pc.PhosphorusKg != res.Loads.PhosphorusKg ||
				pc.NitrateKg != res.Loads.NitrateKg {
				t.Fatalf("%s/%s: per-catchment loads differ: %+v vs %+v",
					sid, cid, pc, res.Loads)
			}
			sed += res.Loads.SedimentTonnes
			phos += res.Loads.PhosphorusKg
			nit += res.Loads.NitrateKg
		}
		if nl.Total.SedimentTonnes != sed || nl.Total.PhosphorusKg != phos || nl.Total.NitrateKg != nit {
			t.Fatalf("%s: totals differ from sequential sum: %+v vs (%v,%v,%v)",
				sid, nl.Total, sed, phos, nit)
		}
	}
	// Defaults: every catchment × every scenario.
	all, err := o.RunNationalQualityContext(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("RunNationalQualityContext(nil,nil): %v", err)
	}
	if len(all) != len(scenario.All()) {
		t.Fatalf("default sweep covered %d scenarios, want %d", len(all), len(scenario.All()))
	}
	for sid, nl := range all {
		if len(nl.PerCatchment) != len(o.Catchments.All()) {
			t.Fatalf("%s covered %d catchments, want %d", sid, len(nl.PerCatchment), len(o.Catchments.All()))
		}
	}
}

// TestRunNationalQualityRejectsDuplicateIDs: a repeated catchment or
// scenario would count its loads twice in the totals, so the sweep
// refuses it instead.
func TestRunNationalQualityRejectsDuplicateIDs(t *testing.T) {
	o, _ := newObs(t)
	for _, tc := range []struct{ catchments, scenarios []string }{
		{[]string{"morland", "morland"}, []string{"baseline"}},
		{[]string{"morland"}, []string{"baseline", "compaction", "baseline"}},
	} {
		if _, err := o.RunNationalQualityContext(context.Background(), tc.catchments, tc.scenarios); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("catchments %v scenarios %v: err = %v, want ErrBadConfig", tc.catchments, tc.scenarios, err)
		}
	}
}

// TestRunModelRejectsNonFiniteStorm: a NaN or infinite storm depth fails
// validation before any simulation, and no result is cached.
func TestRunModelRejectsNonFiniteStorm(t *testing.T) {
	o, _ := newObs(t)
	before := seriesOf(o).get(t, "evop_runcache_entries")
	for _, depth := range []float64{math.Inf(1), math.NaN()} {
		req := RunRequest{CatchmentID: "morland", Model: "topmodel", StormAtHours: 48,
			Storm: &weather.DesignStorm{TotalDepthMM: depth, Duration: 6 * time.Hour, PeakFraction: 0.4}}
		if _, _, err := o.RunModelCachedContext(context.Background(), req); !errors.Is(err, weather.ErrBadConfig) {
			t.Fatalf("depth %v: err = %v, want weather.ErrBadConfig", depth, err)
		}
	}
	if after := seriesOf(o).get(t, "evop_runcache_entries"); after != before {
		t.Fatalf("runcache entries %v -> %v: a rejected run was cached", before, after)
	}
}

func TestDriestStormWindow(t *testing.T) {
	o, _ := newObs(t)
	hours, err := o.DriestStormWindowContext(context.Background(), "morland", 5)
	if err != nil {
		t.Fatalf("DriestStormWindowContext: %v", err)
	}
	if hours < 5*24 || hours >= 30*24 {
		t.Fatalf("window at hour %d out of range", hours)
	}
	// The chosen window really is the driest among candidates.
	f, _ := o.Forcing("morland")
	sumAt := func(start int) float64 {
		s := 0.0
		for i := start - 5*24; i < start; i++ {
			s += f.Rain.At(i)
		}
		return s
	}
	best := sumAt(hours)
	for start := 5 * 24; start+48 < f.Rain.Len(); start += 24 {
		if sumAt(start) < best-1e-9 {
			t.Fatalf("window at %d (%.1f mm) beaten by %d (%.1f mm)", hours, best, start, sumAt(start))
		}
	}
	if _, err := o.DriestStormWindowContext(context.Background(), "thames", 5); err == nil {
		t.Fatal("unknown catchment accepted")
	}
	if _, err := o.DriestStormWindowContext(context.Background(), "morland", 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad window err = %v", err)
	}
	if _, err := o.DriestStormWindowContext(context.Background(), "morland", 100); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("oversized window err = %v", err)
	}
}

func TestObservatorySoak(t *testing.T) {
	// A day in the life of the observatory: users come and go while the
	// sensor network samples and the LB manages capacity. At every
	// checkpoint the operational invariants must hold.
	o, clk := newObs(t)
	o.Start()
	defer o.Stop()

	rng := rand.New(rand.NewSource(4))
	var open []string
	for step := 0; step < 24*6; step++ { // 24h in 10-minute steps
		clk.Advance(10 * time.Minute)
		switch rng.Intn(5) {
		case 0, 1:
			s, err := o.Broker.Connect("soak", "topmodel")
			if err != nil {
				t.Fatalf("step %d connect: %v", step, err)
			}
			open = append(open, s.ID)
		case 2:
			if len(open) > 0 {
				i := rng.Intn(len(open))
				if err := o.Broker.Disconnect(open[i]); err != nil {
					t.Fatalf("step %d disconnect: %v", step, err)
				}
				open = append(open[:i], open[i+1:]...)
			}
		}
		if step%36 == 35 { // every 6 simulated hours, checkpoint
			m := seriesOf(o)
			active, pending := m.get(t, activeSessions), m.get(t, pendingSessions)
			if active+pending < float64(len(open)) {
				t.Fatalf("step %d: %v active + %v pending < %d open sessions",
					step, active, pending, len(open))
			}
			if m.get(t, privateInstances)+m.get(t, publicInstances) == 0 {
				t.Fatalf("step %d: no instances alive", step)
			}
		}
	}
	// Converge and verify nothing was lost.
	clk.Advance(30 * time.Minute)
	m := seriesOf(o)
	if got := m.get(t, pendingSessions); got != 0 {
		t.Fatalf("pending sessions after convergence: %v", got)
	}
	if got := m.get(t, activeSessions); got != float64(len(open)) {
		t.Fatalf("active = %v, open = %d", got, len(open))
	}
	// Sensors sampled all day: the river gauge has ~96 readings.
	hist, err := o.Network.HistoryView("morland-level-1", epoch, epoch.Add(48*time.Hour))
	if err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	if len(hist) < 90 {
		t.Fatalf("river gauge readings = %d, want ~96 over the day", len(hist))
	}
	// Public cost stays bounded (the LB reclaims idle public capacity).
	if cost := m.get(t, "evop_public_cost"); cost > 5 {
		t.Fatalf("public cost = %.2f, runaway leasing", cost)
	}
}

func TestRunLowFlow(t *testing.T) {
	o, _ := newObs(t)
	res, err := o.RunLowFlowContext(context.Background(), "morland", "afforestation")
	if err != nil {
		t.Fatalf("RunLowFlowContext: %v", err)
	}
	if res.Scenario != "afforestation" {
		t.Fatalf("scenario = %s", res.Scenario)
	}
	if res.Summary.Q95 <= 0 || res.Baseline.Q95 <= 0 {
		t.Fatalf("Q95s = %v / %v", res.Summary.Q95, res.Baseline.Q95)
	}
	if res.Summary.BFI <= 0 || res.Summary.BFI > 1 {
		t.Fatalf("BFI = %v", res.Summary.BFI)
	}
	// Empty scenario defaults to baseline and matches it.
	base, err := o.RunLowFlowContext(context.Background(), "morland", "")
	if err != nil {
		t.Fatalf("RunLowFlowContext baseline: %v", err)
	}
	if base.Summary.Q95 != base.Baseline.Q95 {
		t.Fatal("baseline summary differs from itself")
	}
	if _, err := o.RunLowFlowContext(context.Background(), "thames", ""); err == nil {
		t.Fatal("unknown catchment accepted")
	}
	if _, err := o.RunLowFlowContext(context.Background(), "morland", "urban"); !errors.Is(err, scenario.ErrUnknown) {
		t.Fatalf("unknown scenario err = %v", err)
	}
}

func TestUploadDatasetAndRun(t *testing.T) {
	o, _ := newObs(t)
	// A user uploads a two-week hourly record with one intense burst.
	vals := make([]float64, 14*24)
	for i := 100; i < 106; i++ {
		vals[i] = 10
	}
	rain := timeseries.MustNew(epochStart, time.Hour, vals)
	if err := o.UploadDataset("my-gauge", rain); err != nil {
		t.Fatalf("UploadDataset: %v", err)
	}
	// The dataset is an asset now.
	if _, err := o.Assets.Get("datasets", "my-gauge"); err != nil {
		t.Fatalf("asset missing: %v", err)
	}
	got, err := o.Dataset("my-gauge")
	if err != nil || got.Len() != rain.Len() {
		t.Fatalf("Dataset = %v, %v", got, err)
	}
	// Mutating the returned copy must not corrupt the stored dataset.
	got.SetAt(0, 999)
	again, _ := o.Dataset("my-gauge")
	if again.At(0) == 999 {
		t.Fatal("Dataset returned shared storage")
	}

	res, _, err := o.RunModelCachedContext(context.Background(), RunRequest{
		CatchmentID: "morland", Model: "topmodel", RainDatasetID: "my-gauge",
	})
	if err != nil {
		t.Fatalf("RunModelCachedContext with upload: %v", err)
	}
	if res.Discharge.Len() != rain.Len() {
		t.Fatalf("discharge length = %d, want %d (the uploaded record)", res.Discharge.Len(), rain.Len())
	}
	// The response peaks after the uploaded burst, not anywhere else.
	if res.PeakAt.Before(epochStart.Add(100 * time.Hour)) {
		t.Fatalf("peak at %v before the uploaded burst", res.PeakAt)
	}
}

func TestUploadDatasetValidation(t *testing.T) {
	o, _ := newObs(t)
	hourly := timeseries.MustNew(epochStart, time.Hour, []float64{1, 2})
	if err := o.UploadDataset("", hourly); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty id err = %v", err)
	}
	if err := o.UploadDataset("x", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil err = %v", err)
	}
	daily := timeseries.MustNew(epochStart, 24*time.Hour, []float64{1, 2})
	if err := o.UploadDataset("x", daily); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("daily step err = %v", err)
	}
	neg := timeseries.MustNew(epochStart, time.Hour, []float64{1, -2})
	if err := o.UploadDataset("x", neg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative err = %v", err)
	}
	inf := timeseries.MustNew(epochStart, time.Hour, []float64{1, math.Inf(1)})
	if err := o.UploadDataset("x", inf); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("+Inf err = %v", err)
	}
	if _, err := o.Dataset("ghost"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown dataset err = %v", err)
	}
	// Disjoint record (no PET overlap) fails at run time.
	far := timeseries.MustNew(epochStart.AddDate(3, 0, 0), time.Hour, []float64{1, 2})
	if err := o.UploadDataset("far", far); err != nil {
		t.Fatalf("UploadDataset far: %v", err)
	}
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "morland", Model: "topmodel", RainDatasetID: "far"}); err == nil {
		t.Fatal("disjoint dataset accepted")
	}
}

func TestRunModelCacheHitAndKeying(t *testing.T) {
	o, _ := newObs(t)
	req := RunRequest{CatchmentID: "morland", Model: "topmodel"}

	r1, out, err := o.RunModelCachedContext(context.Background(), req)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if out != runcache.Miss {
		t.Fatalf("first run outcome = %v, want miss", out)
	}
	r2, out, err := o.RunModelCachedContext(context.Background(), req)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if out != runcache.Hit {
		t.Fatalf("second run outcome = %v, want hit", out)
	}
	if r1 != r2 {
		t.Fatal("cache hit returned a different result pointer")
	}
	m := seriesOf(o)
	hits, misses, size := m.get(t, "evop_runcache_hits_total"), m.get(t, "evop_runcache_misses_total"),
		m.get(t, "evop_runcache_entries")
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache hits/misses/size = %v/%v/%v, want 1/1/1", hits, misses, size)
	}

	// Any field that changes the simulation must change the key.
	variants := []RunRequest{
		{CatchmentID: "tarland", Model: "topmodel"},
		{CatchmentID: "morland", Model: "fuse"},
		{CatchmentID: "morland", Model: "topmodel", ScenarioID: scenario.Afforestation},
		{CatchmentID: "morland", Model: "topmodel", Storm: &weather.DesignStorm{TotalDepthMM: 40, Duration: 6 * time.Hour, PeakFraction: 0.4}, StormAtHours: 48},
	}
	p := topmodel.DefaultParams()
	p.M = p.M * 1.5
	variants = append(variants, RunRequest{CatchmentID: "morland", Model: "topmodel", TOPMODELParams: &p})
	for i, v := range variants {
		if _, out, err := o.RunModelCachedContext(context.Background(), v); err != nil || out != runcache.Miss {
			t.Fatalf("variant %d: outcome = %v err = %v, want fresh miss", i, out, err)
		}
	}
	// Errors are not cached: the same bad request keeps failing afresh.
	bad := RunRequest{CatchmentID: "thames", Model: "topmodel"}
	for i := 0; i < 2; i++ {
		if _, out, err := o.RunModelCachedContext(context.Background(), bad); err == nil || out != runcache.Miss {
			t.Fatalf("bad request %d: outcome = %v err = %v", i, out, err)
		}
	}
	if hits := seriesOf(o).get(t, "evop_runcache_hits_total"); hits != 1 {
		t.Fatalf("variant/error requests inflated hits: %v", hits)
	}
}

func TestUploadDatasetPurgesRunCache(t *testing.T) {
	o, _ := newObs(t)
	vals := make([]float64, 14*24)
	vals[50] = 8
	rain := timeseries.MustNew(epochStart, time.Hour, vals)
	if err := o.UploadDataset("gauge", rain); err != nil {
		t.Fatalf("UploadDataset: %v", err)
	}
	req := RunRequest{CatchmentID: "morland", Model: "topmodel", RainDatasetID: "gauge"}
	r1, _, err := o.RunModelCachedContext(context.Background(), req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Re-uploading under the same id changes inputs the cache key cannot
	// see, so it must purge.
	vals[200] = 25
	if err := o.UploadDataset("gauge", timeseries.MustNew(epochStart, time.Hour, vals)); err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	r2, out, err := o.RunModelCachedContext(context.Background(), req)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if out != runcache.Miss {
		t.Fatalf("post-upload outcome = %v, want miss (cache purged)", out)
	}
	if r2.PeakMM <= r1.PeakMM {
		t.Fatalf("rerun peak %v not reflecting new burst (old %v)", r2.PeakMM, r1.PeakMM)
	}
}

func TestRunModelDeadContextNeverSimulates(t *testing.T) {
	o, _ := newObs(t)
	var entered atomic.Bool
	o.SetRunHook(func(context.Context, RunRequest) error {
		entered.Store(true)
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := o.RunModelCachedContext(ctx, RunRequest{CatchmentID: "morland", Model: "topmodel"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != runcache.Canceled {
		t.Fatalf("outcome = %v, want canceled", out)
	}
	if entered.Load() {
		t.Fatal("simulation ran under a dead context")
	}
}

func TestRunModelCancellationAbandonsSimulation(t *testing.T) {
	o, _ := newObs(t)
	entered := make(chan struct{})
	flightDone := make(chan error, 1)
	o.SetRunHook(func(ctx context.Context, _ RunRequest) error {
		close(entered)
		<-ctx.Done()
		flightDone <- ctx.Err()
		return ctx.Err()
	})
	req := RunRequest{CatchmentID: "morland", Model: "topmodel"}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := o.RunModelCachedContext(ctx, req)
		errCh <- err
	}()
	<-entered
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunModelCachedContext err = %v, want context.Canceled", err)
	}
	// With the sole requester gone, the flight's context must cancel so
	// the simulation stops consuming CPU.
	select {
	case err := <-flightDone:
		if err == nil {
			t.Fatal("flight context not canceled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("simulation kept running after its only requester left")
	}
	// The abandoned flight must not poison the key: a fresh request
	// recomputes and succeeds.
	o.SetRunHook(nil)
	res, out, err := o.RunModelCachedContext(context.Background(), req)
	if err != nil || res == nil {
		t.Fatalf("rerun after abandonment: %v", err)
	}
	if out != runcache.Miss {
		t.Fatalf("rerun outcome = %v, want miss", out)
	}
}

func TestRunQualityContextCanceled(t *testing.T) {
	o, _ := newObs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.RunQualityContext(ctx, "morland", "compaction"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunQualityContext err = %v, want context.Canceled", err)
	}
	if _, err := o.RunLowFlowContext(ctx, "morland", "compaction"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunLowFlowContext err = %v, want context.Canceled", err)
	}
	if _, err := o.DriestStormWindowContext(ctx, "morland", 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("DriestStormWindowContext err = %v, want context.Canceled", err)
	}
}

func TestUnknownCatchmentSentinel(t *testing.T) {
	o, _ := newObs(t)
	if _, _, err := o.RunModelCachedContext(context.Background(), RunRequest{CatchmentID: "ghost", Model: "topmodel"}); !errors.Is(err, ErrUnknownCatchment) {
		t.Fatalf("RunModelCachedContext ghost err = %v, want ErrUnknownCatchment", err)
	}
	// The sentinel must keep matching ErrBadConfig for existing callers.
	if _, err := o.Forcing("ghost"); !errors.Is(err, ErrBadConfig) || !errors.Is(err, ErrUnknownCatchment) {
		t.Fatalf("Forcing ghost err = %v, want both sentinels", err)
	}
	if _, err := o.RunQualityContext(context.Background(), "ghost", ""); !errors.Is(err, ErrUnknownCatchment) {
		t.Fatalf("RunQualityContext ghost err = %v, want ErrUnknownCatchment", err)
	}
}

func TestResilienceMetricsSurface(t *testing.T) {
	o, clk := newObs(t)
	o.Start()
	clk.Advance(time.Minute)
	o.Stop()

	m := seriesOf(o)
	if got := len(o.Multi.Providers()); got != 2 {
		t.Fatalf("providers = %d, want 2", got)
	}
	for _, p := range o.Multi.Providers() {
		if st := m.get(t, breakerState(p.Name())); st != 0 {
			t.Fatalf("breaker %s state = %v on a healthy platform, want 0 (closed)", p.Name(), st)
		}
	}
	if m.get(t, "evop_lb_ticks_total") == 0 {
		t.Fatal("LB stats not wired into metrics")
	}
	suspended, ever := m.get(t, "evop_broker_sessions_suspended"), m.get(t, "evop_broker_sessions_suspended_total")
	if suspended != 0 || ever != 0 {
		t.Fatalf("suspended = %v/%v on a healthy platform, want 0/0", suspended, ever)
	}
	if got := m.get(t, "evop_cloud_failovers_total"); got != 0 {
		t.Fatalf("failovers = %v on a healthy platform", got)
	}
}

// TestProcessGauges checks the evop_process_* gauges: uptime on the
// observatory's clock, live goroutines and heap.
func TestProcessGauges(t *testing.T) {
	o, clk := newObs(t)
	clk.Advance(90 * time.Second)
	m := seriesOf(o)
	if got := m.get(t, "evop_process_uptime_seconds"); got != 90 {
		t.Fatalf("uptime = %v, want 90 (simulated clock)", got)
	}
	if got := m.get(t, "evop_process_goroutines"); got < 1 {
		t.Fatalf("goroutines = %v, want >= 1", got)
	}
	if m.get(t, "evop_process_heap_bytes") == 0 {
		t.Fatal("heap bytes = 0, want live heap")
	}
}

func TestFaultInjectionConfigWiresDecorators(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	cfg := DefaultConfig(clk)
	cfg.ForcingDays = 30
	cfg.Faults = &cloud.FaultSpec{Seed: 7}
	o, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if o.FaultyPrivate == nil || o.FaultyPublic == nil {
		t.Fatal("fault decorators not installed")
	}
	if o.FaultyPrivate.Inner() != o.Private || o.FaultyPublic.Inner() != o.Public {
		t.Fatal("decorators do not wrap the observatory's clouds")
	}

	// A scheduled private outage is visible through the assembled stack:
	// the breaker opens, launches fail over to the public cloud, and the
	// platform keeps serving.
	o.FaultyPrivate.ScheduleOutage(clk.Now(), 10*time.Minute)
	for i := 0; i < 6; i++ {
		clk.Advance(45 * time.Second)
		o.LB.Tick()
	}
	if _, err := o.Broker.Connect("chaos-user", "topmodel"); err != nil {
		t.Fatalf("Connect during outage: %v", err)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(45 * time.Second)
		o.LB.Tick()
	}
	if seriesOf(o).get(t, publicInstances) == 0 {
		t.Fatal("no public instances, want cloudburst onto public during private outage")
	}
	if o.FaultyPrivate.Stats().Outages == 0 {
		t.Fatal("outage never injected a fault")
	}

	// After the outage the probes close the breaker again.
	clk.Advance(10 * time.Minute)
	for i := 0; i < 10; i++ {
		clk.Advance(45 * time.Second)
		o.LB.Tick()
	}
	m := seriesOf(o)
	for _, p := range o.Multi.Providers() {
		if st := m.get(t, breakerState(p.Name())); st != 0 {
			t.Fatalf("breaker %s state = %v after outage ended, want 0 (closed)", p.Name(), st)
		}
	}

	// Invalid fault specs are rejected at assembly time.
	bad := DefaultConfig(clk)
	bad.ForcingDays = 30
	bad.Faults = &cloud.FaultSpec{LaunchErrorRate: 2}
	if _, err := New(bad); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// Series IDs the tests read from the observatory's registry.
const (
	activeSessions   = `evop_sessions{state="active"}`
	pendingSessions  = `evop_sessions{state="pending"}`
	privateInstances = `evop_instances{kind="private"}`
	publicInstances  = `evop_instances{kind="public"}`
)

func breakerState(provider string) string {
	return `evop_breaker_state{name="` + provider + `"}`
}

// series is one registry snapshot's counter and gauge values by series
// ID.
type series map[string]float64

func seriesOf(o *Observatory) series {
	m := series{}
	for _, mt := range o.MetricsRegistry().Snapshot().Metrics {
		m[mt.SeriesID()] = mt.Value
	}
	return m
}

// get reads one series, failing the test when it is not registered.
func (m series) get(t *testing.T, id string) float64 {
	t.Helper()
	v, ok := m[id]
	if !ok {
		t.Fatalf("series %s not registered", id)
	}
	return v
}
