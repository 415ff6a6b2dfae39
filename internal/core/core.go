// Package core assembles the Environmental Virtual Observatory: the
// paper's primary contribution is not any single algorithm but the
// integration — catchments, data feeds, models, a model library, a hybrid
// cloud with broker/load-balancer management, and standards-compliant
// service interfaces — into one virtual research space. Observatory is
// that assembly, and is the type the portal, the examples and the
// experiments all build on.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"evop/internal/admission"
	"evop/internal/broker"
	"evop/internal/catchment"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/cloud/crosscloud"
	"evop/internal/hydro"
	"evop/internal/hydro/fuse"
	"evop/internal/hydro/lowflow"
	"evop/internal/hydro/pet"
	"evop/internal/hydro/quality"
	"evop/internal/hydro/topmodel"
	"evop/internal/loadbalancer"
	"evop/internal/metrics"
	"evop/internal/modellib"
	"evop/internal/ogc/sos"
	"evop/internal/ogc/wps"
	"evop/internal/resilience"
	"evop/internal/rest"
	"evop/internal/runcache"
	"evop/internal/scenario"
	"evop/internal/sched"
	"evop/internal/sensor"
	"evop/internal/timeseries"
	"evop/internal/weather"
	"evop/internal/workflow"
)

// Common errors.
var (
	// ErrBadConfig indicates an invalid observatory configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrUnknownModel indicates an unsupported model name.
	ErrUnknownModel = errors.New("core: unknown model")
	// ErrUnknownCatchment indicates a request naming a catchment the
	// registry does not hold. It wraps ErrBadConfig so existing
	// errors.Is(err, ErrBadConfig) checks keep matching, while letting
	// HTTP layers distinguish "no such resource" from "bad parameters".
	ErrUnknownCatchment = fmt.Errorf("core: unknown catchment (%w)", ErrBadConfig)
)

// runCacheSize bounds the model-run result cache (entries).
const runCacheSize = 256

// Config parameterises the observatory.
type Config struct {
	// Clock drives everything; required.
	Clock clock.Clock
	// Start anchors the simulated data period (forcing, sensors).
	Start time.Time
	// PrivateCapacity is the private cloud's instance limit.
	PrivateCapacity int
	// Flavor is the instance size used for model services.
	Flavor cloud.Flavor
	// LBInterval is the load balancer control period.
	LBInterval time.Duration
	// ForcingDays is the length of the standard forcing record each
	// catchment carries.
	ForcingDays int
	// Faults, when non-nil, wraps both clouds in deterministic fault
	// injection (the public cloud uses Seed+1 so the two fault streams
	// differ). Chaos experiments schedule outages and tune rates through
	// FaultyPrivate / FaultyPublic on the assembled observatory.
	Faults *cloud.FaultSpec
	// Admission tunes the portal's front-door overload protection; nil
	// uses the admission package defaults. Clock and Metrics are always
	// supplied by the assembly and ignored if set here.
	Admission *admission.Config
}

// DefaultConfig returns a config suitable for experiments: a small
// private cloud, elastic public cloud, 10s control loop, 120-day forcing.
func DefaultConfig(clk clock.Clock) Config {
	return Config{
		Clock:           clk,
		Start:           time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
		PrivateCapacity: 4,
		Flavor:          cloud.DefaultFlavor(),
		LBInterval:      10 * time.Second,
		ForcingDays:     120,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Clock == nil:
		return fmt.Errorf("nil clock: %w", ErrBadConfig)
	case c.Start.IsZero():
		return fmt.Errorf("zero start: %w", ErrBadConfig)
	case c.PrivateCapacity < 1:
		return fmt.Errorf("private capacity %d: %w", c.PrivateCapacity, ErrBadConfig)
	case c.Flavor.MaxSessions < 1:
		return fmt.Errorf("flavor sessions %d: %w", c.Flavor.MaxSessions, ErrBadConfig)
	case c.LBInterval <= 0:
		return fmt.Errorf("LB interval %v: %w", c.LBInterval, ErrBadConfig)
	case c.ForcingDays < 2:
		return fmt.Errorf("forcing days %d: %w", c.ForcingDays, ErrBadConfig)
	}
	return nil
}

// Observatory is the assembled EVOp platform.
type Observatory struct {
	cfg Config

	// Catchments is the study catchment registry.
	Catchments *catchment.Registry
	// Network is the in-situ sensor network across all catchments.
	Network *sensor.Network
	// Library is the Model Library.
	Library *modellib.Library
	// Private and Public are the two clouds; Multi is the cross-cloud
	// façade over them.
	Private *cloud.SimProvider
	Public  *cloud.SimProvider
	// FaultyPrivate and FaultyPublic are the fault-injection decorators
	// around the two clouds; nil unless Config.Faults was set.
	FaultyPrivate *cloud.FaultyProvider
	FaultyPublic  *cloud.FaultyProvider
	Multi         *crosscloud.Multi
	// Broker is the Resource Broker; LB the Load Balancer.
	Broker *broker.Broker
	LB     *loadbalancer.LB
	// WPS exposes the models; SOS the sensors; Assets the REST resources.
	WPS    *wps.Service
	SOS    *sos.Service
	Assets *rest.Store
	// Workflows executes composed experiments (the future-work feature).
	Workflows *workflow.Service
	// Admission is the front-door overload gate the portal consults
	// before running any handler.
	Admission *admission.Controller
	// Sched is the shared compute pool every CPU-bound fan-out runs on:
	// FUSE ensembles, calibration sweeps, national aggregations and
	// asynchronous WPS executions.
	Sched *sched.Pool

	mu       sync.Mutex
	forcings map[string]hydro.Forcing
	uploads  map[string]*timeseries.Series
	// runHook, when set, runs at the start of every uncached model
	// simulation (after request validation, before the kernel). Tests use
	// it to inject latency or block until cancellation so
	// request-abandonment behaviour is observable.
	runHook func(ctx context.Context, req RunRequest) error

	// runs caches and coalesces on-demand model runs: identical
	// (catchment, scenario, model, params, dataset, storm window)
	// requests cost one simulation. Cached RunResults are shared between
	// callers and must be treated as immutable.
	runs *runcache.Cache[*RunResult]

	// registry is the observatory-wide metrics registry every layer
	// records into; modelRunSeconds times uncached simulations.
	registry        *metrics.Registry
	modelRunSeconds *metrics.Histogram
}

// New assembles an observatory over the three LEFT catchments.
func New(cfg Config) (*Observatory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry(cfg.Clock)
	o := &Observatory{
		cfg:        cfg,
		Catchments: catchment.LEFTCatchments(),
		Library:    modellib.New(cfg.Clock.Now),
		Assets:     rest.NewStore(),
		forcings:   make(map[string]hydro.Forcing),
		uploads:    make(map[string]*timeseries.Series),
		runs:       runcache.New[*RunResult](runCacheSize, reg),
		registry:   reg,
		modelRunSeconds: reg.Histogram("evop_model_run_seconds",
			"Uncached model simulation duration.", metrics.DurationScale),
	}

	// Front-door admission gate. The registry and clock are the
	// observatory's own, whatever the caller put in the template config.
	acfg := admission.Config{}
	if cfg.Admission != nil {
		acfg = *cfg.Admission
	}
	acfg.Clock = cfg.Clock
	acfg.Metrics = reg
	var err error
	o.Admission, err = admission.New(acfg)
	if err != nil {
		return nil, fmt.Errorf("building admission gate: %w", err)
	}

	// Shared compute pool. Created early so later failures can release
	// its workers through the deferred close.
	o.Sched, err = sched.New(sched.Config{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("building compute pool: %w", err)
	}
	assembled := false
	defer func() {
		if !assembled {
			o.Sched.Close()
		}
	}()

	o.Private, err = cloud.NewProvider(cloud.Config{
		Name: "openstack-lancaster", Kind: cloud.Private,
		MaxInstances: cfg.PrivateCapacity, BootDelay: 30 * time.Second,
		AddrPrefix: "10.40.1.", Clock: cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("building private cloud: %w", err)
	}
	o.Public, err = cloud.NewProvider(cloud.Config{
		Name: "aws-eu-west", Kind: cloud.Public,
		MaxInstances: -1, BootDelay: 90 * time.Second,
		AddrPrefix: "54.72.0.", Clock: cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("building public cloud: %w", err)
	}
	// The multi-cloud façade sees the fault decorators when chaos is on,
	// the raw providers otherwise.
	private, public := cloud.Provider(o.Private), cloud.Provider(o.Public)
	if cfg.Faults != nil {
		privSpec := *cfg.Faults
		pubSpec := *cfg.Faults
		pubSpec.Seed = privSpec.Seed + 1
		o.FaultyPrivate, err = cloud.NewFaultyProvider(o.Private, cfg.Clock, privSpec)
		if err != nil {
			return nil, fmt.Errorf("wrapping private cloud: %w", err)
		}
		o.FaultyPublic, err = cloud.NewFaultyProvider(o.Public, cfg.Clock, pubSpec)
		if err != nil {
			return nil, fmt.Errorf("wrapping public cloud: %w", err)
		}
		private, public = o.FaultyPrivate, o.FaultyPublic
	}
	o.Multi, err = crosscloud.New(crosscloud.PrivateFirst{}, private, public)
	if err != nil {
		return nil, fmt.Errorf("building multi-cloud: %w", err)
	}
	if err := o.Multi.EnableBreakers(resilience.BreakerConfig{Clock: cfg.Clock, Metrics: reg}); err != nil {
		return nil, fmt.Errorf("enabling circuit breakers: %w", err)
	}
	o.Broker, err = broker.New(cfg.Clock, reg)
	if err != nil {
		return nil, fmt.Errorf("building broker: %w", err)
	}

	// Sensor network: the standard LEFT deployment per catchment.
	o.Network, err = sensor.NewNetwork(cfg.Clock, reg)
	if err != nil {
		return nil, fmt.Errorf("building sensor network: %w", err)
	}
	for _, c := range o.Catchments.All() {
		sensors, err := sensor.LEFTDeployment(cfg.Clock, c.ID, c.Outlet, c.ClimateSeed, cfg.Start)
		if err != nil {
			return nil, fmt.Errorf("deploying sensors in %s: %w", c.ID, err)
		}
		for _, s := range sensors {
			if err := o.Network.Add(s); err != nil {
				return nil, fmt.Errorf("adding sensor %s: %w", s.ID, err)
			}
		}
	}
	o.SOS, err = sos.NewService("EVOp SOS", o.Network, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("building SOS: %w", err)
	}

	// Model Library: a streamlined TOPMODEL bundle per catchment, one
	// FUSE bundle, one incubator.
	for _, c := range o.Catchments.All() {
		if _, err := o.Library.PublishStreamlined("topmodel", c.ID, topmodel.DefaultParams(),
			10*time.Second, "offline-calibrated TOPMODEL for "+c.Name); err != nil {
			return nil, fmt.Errorf("publishing topmodel bundle: %w", err)
		}
		if _, err := o.Library.PublishStreamlined("fuse", c.ID, fuse.DefaultParams(),
			10*time.Second, "FUSE ensemble for "+c.Name); err != nil {
			return nil, fmt.Errorf("publishing fuse bundle: %w", err)
		}
	}
	if _, err := o.Library.PublishIncubator("general", 4*time.Minute,
		"generic model incubator for experimental models"); err != nil {
		return nil, fmt.Errorf("publishing incubator: %w", err)
	}

	// Load balancer launches the multi-service image (it serves both
	// model families — the bundles list both identifiers).
	serviceImage := cloud.Image{
		ID: "evop-services-v1", Name: "EVOp model services", Kind: cloud.Streamlined,
		Services: []string{"topmodel", "fuse"},
	}
	o.LB, err = loadbalancer.New(loadbalancer.Config{
		Multi: o.Multi, Broker: o.Broker, Clock: cfg.Clock,
		Image: serviceImage, Flavor: cfg.Flavor, Interval: cfg.LBInterval,
		Metrics: reg,
	})
	if err != nil {
		return nil, fmt.Errorf("building load balancer: %w", err)
	}

	// WPS: model execution processes. Async executions run as bulk-class
	// tasks on the shared pool, bounded rather than goroutine-per-request.
	o.WPS, err = wps.NewService("EVOp WPS", wps.Options{Metrics: reg, Pool: o.Sched})
	if err != nil {
		return nil, fmt.Errorf("building WPS: %w", err)
	}
	models := []wps.Process{&modelProcess{obs: o, model: "topmodel"}, &modelProcess{obs: o, model: "fuse"}}
	for _, proc := range models {
		if err := o.WPS.Register(proc); err != nil {
			return nil, fmt.Errorf("registering %s process: %w", proc.Identifier(), err)
		}
	}

	// Workflow composition over the same processes, plus a statistics
	// process so hydrographs can flow between nodes. WPS does not offer
	// hydrostats.
	o.Workflows = workflow.NewService()
	for _, proc := range append(models, hydroStatsProcess{}) {
		if err := o.Workflows.RegisterProcess(proc); err != nil {
			return nil, fmt.Errorf("registering workflow process %s: %w", proc.Identifier(), err)
		}
	}

	o.populateAssets()
	o.registerGauges()
	assembled = true
	return o, nil
}

// MetricsRegistry returns the observatory-wide metrics registry, the
// single place every layer's counters and histograms live.
func (o *Observatory) MetricsRegistry() *metrics.Registry {
	return o.registry
}

// registerGauges installs callback gauges over assembled components.
// GaugeFunc callbacks run during Snapshot outside the registry lock, so
// they may take component locks freely.
func (o *Observatory) registerGauges() {
	reg := o.registry
	reg.GaugeFunc("evop_instances", "Cloud instances by kind.",
		o.countInstances(func(in *cloud.Instance) bool { return in.Kind() == cloud.Private }),
		metrics.L("kind", "private"))
	reg.GaugeFunc("evop_instances", "Cloud instances by kind.",
		o.countInstances(func(in *cloud.Instance) bool { return in.Kind() == cloud.Public }),
		metrics.L("kind", "public"))
	reg.GaugeFunc("evop_instances_booting", "Cloud instances still booting.",
		o.countInstances(func(in *cloud.Instance) bool { return in.State() == cloud.StateBooting }))
	reg.GaugeFunc("evop_public_cost", "Accrued public-cloud cost.",
		o.Public.CostAccrued)
	reg.GaugeFunc("evop_sensors", "Sensors registered in the network.",
		func() float64 { return float64(len(o.Network.Sensors())) })
	reg.GaugeFunc("evop_workflow_runs", "Workflow runs recorded for replay.",
		func() float64 { return float64(len(o.Workflows.Runs())) })
	reg.GaugeFunc("evop_process_uptime_seconds", "Process uptime on the observatory clock.",
		func() float64 { return reg.Uptime().Seconds() })
	reg.GaugeFunc("evop_process_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("evop_process_heap_bytes", "Live heap bytes.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// countInstances returns a gauge callback counting the live instances
// that match.
func (o *Observatory) countInstances(match func(*cloud.Instance) bool) func() float64 {
	return func() float64 {
		n := 0
		for _, in := range o.Multi.Instances() {
			if match(in) {
				n++
			}
		}
		return float64(n)
	}
}

// populateAssets fills the REST store with the observatory's resources so
// the portal's asset API reflects reality.
func (o *Observatory) populateAssets() {
	for _, c := range o.Catchments.All() {
		// Registry-derived attributes only; derived terrain products are
		// exposed through dedicated endpoints.
		_ = o.Assets.Put(rest.Resource{ID: c.ID, Kind: "catchments", Attributes: map[string]any{
			"name": c.Name, "region": c.Region, "areaKm2": c.AreaKM2,
			"lat": c.Outlet.Lat, "lon": c.Outlet.Lon,
		}})
	}
	for _, s := range o.Network.Sensors() {
		_ = o.Assets.Put(rest.Resource{ID: s.ID, Kind: "sensors", Attributes: map[string]any{
			"kind": s.Kind.String(), "unit": s.Kind.Unit(), "catchment": s.CatchmentID,
			"lat": s.Location.Lat, "lon": s.Location.Lon,
			"intervalSeconds": s.Interval.Seconds(),
		}})
	}
	for _, e := range o.Library.List() {
		_ = o.Assets.Put(rest.Resource{ID: e.Image.ID, Kind: "models", Attributes: map[string]any{
			"name": e.Image.Name, "kind": e.Image.Kind.String(),
			"model": e.ModelName, "catchment": e.CatchmentID,
			"version": e.Version, "description": e.Description,
		}})
	}
	for _, sc := range scenario.All() {
		_ = o.Assets.Put(rest.Resource{ID: sc.ID, Kind: "scenarios", Attributes: map[string]any{
			"name": sc.Name, "description": sc.Description,
		}})
	}
}

// Start launches the background management loops (LB, sensors).
func (o *Observatory) Start() {
	o.Network.Start()
	o.LB.Start()
}

// Stop halts the background loops, waits for async WPS executions and
// releases the compute pool's workers. Stopping twice is safe.
func (o *Observatory) Stop() {
	o.LB.Stop()
	o.Network.Stop()
	o.WPS.Wait()
	o.Sched.Close()
}

// Shutdown gracefully stops the observatory: it waits, bounded by ctx,
// for in-flight async WPS executions to drain, cancels any that remain,
// then halts the background loops. The returned error is non-nil when
// executions had to be canceled rather than drained.
func (o *Observatory) Shutdown(ctx context.Context) error {
	err := o.WPS.Drain(ctx)
	if err != nil {
		// Remaining executions are canceled; they fail fast and release
		// the wait group, so the final Wait in Stop cannot hang.
		o.WPS.Close()
	}
	o.Stop()
	return err
}

// SetRunHook installs a hook invoked at the start of every uncached model
// simulation; a nil fn clears it. This is a test seam — production code
// must leave it unset.
func (o *Observatory) SetRunHook(fn func(ctx context.Context, req RunRequest) error) {
	o.mu.Lock()
	o.runHook = fn
	o.mu.Unlock()
}

// Forcing returns the catchment's standard forcing record (hourly rain +
// Oudin PET over ForcingDays), generated deterministically from the
// catchment's climate seed and cached.
func (o *Observatory) Forcing(catchmentID string) (hydro.Forcing, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if f, ok := o.forcings[catchmentID]; ok {
		return f, nil
	}
	c, ok := o.Catchments.Get(catchmentID)
	if !ok {
		return hydro.Forcing{}, fmt.Errorf("catchment %q: %w", catchmentID, ErrUnknownCatchment)
	}
	gen, err := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed)
	if err != nil {
		return hydro.Forcing{}, fmt.Errorf("building generator: %w", err)
	}
	hours := o.cfg.ForcingDays * 24
	rain, err := gen.Rainfall(o.cfg.Start, time.Hour, hours)
	if err != nil {
		return hydro.Forcing{}, fmt.Errorf("generating rainfall: %w", err)
	}
	temp, err := gen.Temperature(o.cfg.Start, time.Hour, hours)
	if err != nil {
		return hydro.Forcing{}, fmt.Errorf("generating temperature: %w", err)
	}
	petSeries, err := pet.Oudin(temp, c.Outlet.Lat)
	if err != nil {
		return hydro.Forcing{}, fmt.Errorf("computing PET: %w", err)
	}
	f := hydro.Forcing{Rain: rain, PET: petSeries}
	o.forcings[catchmentID] = f
	return f, nil
}

// UploadDataset stores a user-provided hourly rainfall series under an
// ID — the "scientists want to ... upload data, use it to run predictive
// models" requirement (Section III-A). The series must be hourly,
// non-empty, finite and non-negative.
func (o *Observatory) UploadDataset(id string, s *timeseries.Series) error {
	if id == "" {
		return fmt.Errorf("empty dataset id: %w", ErrBadConfig)
	}
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("dataset %q is empty: %w", id, ErrBadConfig)
	}
	if s.Step() != time.Hour {
		return fmt.Errorf("dataset %q step %v, want hourly: %w", id, s.Step(), ErrBadConfig)
	}
	for i := 0; i < s.Len(); i++ {
		if v := s.At(i); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset %q sample %d = %v: %w", id, i, v, ErrBadConfig)
		}
	}
	o.mu.Lock()
	o.uploads[id] = s.Clone()
	o.mu.Unlock()
	// Re-uploading under an existing ID changes run inputs the cache key
	// cannot see, so drop every cached run.
	o.runs.Purge()
	_ = o.Assets.Put(rest.Resource{ID: id, Kind: "datasets", Attributes: map[string]any{
		"kind": "uploadedRainfall", "samples": s.Len(),
		"start": s.Start().Format(time.RFC3339),
	}})
	return nil
}

// Dataset returns an uploaded dataset by ID.
func (o *Observatory) Dataset(id string) (*timeseries.Series, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.uploads[id]
	if !ok {
		return nil, fmt.Errorf("dataset %q: %w", id, ErrBadConfig)
	}
	return s.Clone(), nil
}

// RunRequest describes one on-demand model run — what the LEFT widget
// submits when the user presses "run".
type RunRequest struct {
	// CatchmentID selects the catchment ("morland").
	CatchmentID string `json:"catchment"`
	// ScenarioID selects the land-use preset; empty means baseline.
	ScenarioID string `json:"scenario,omitempty"`
	// Model is "topmodel" or "fuse".
	Model string `json:"model"`
	// TOPMODELParams overrides the calibrated parameters (the widget's
	// sliders); nil uses the scenario-adjusted defaults.
	TOPMODELParams *topmodel.Params `json:"topmodelParams,omitempty"`
	// RainDatasetID substitutes an uploaded rainfall dataset for the
	// catchment's synthetic record (PET is taken from the overlap of the
	// standard forcing).
	RainDatasetID string `json:"rainDataset,omitempty"`
	// Storm optionally injects a design storm.
	Storm *weather.DesignStorm `json:"storm,omitempty"`
	// StormAtHours places the storm, in hours after the forcing start.
	StormAtHours int `json:"stormAtHours,omitempty"`
}

// RunResult is the widget-facing output of a model run.
type RunResult struct {
	// Discharge is the simulated hydrograph in mm/step.
	Discharge *timeseries.Series `json:"discharge"`
	// PeakMM is the peak flow (mm/step); PeakAt its time.
	PeakMM float64   `json:"peakMm"`
	PeakAt time.Time `json:"peakAt"`
	// VolumeMM is total flow volume over the simulation.
	VolumeMM float64 `json:"volumeMm"`
	// RunoffRatio is flow volume / rainfall volume.
	RunoffRatio float64 `json:"runoffRatio"`
	// StormPeakMM and StormPeakAt summarise the 48-hour window following
	// an injected design storm — the number the LEFT widget compares
	// across scenarios. Zero when no storm was injected.
	StormPeakMM float64   `json:"stormPeakMm,omitempty"`
	StormPeakAt time.Time `json:"stormPeakAt,omitempty"`
	// Model and Scenario echo the request.
	Model    string `json:"model"`
	Scenario string `json:"scenario"`

	// areaKM2 is the catchment's area, kept for DischargeM3S.
	areaKM2 float64
}

// DischargeM3S converts the hydrograph to cubic metres per second over
// the catchment's area. It computes a fresh series on every call, so a
// cached result holds only the mm/step hydrograph.
func (r *RunResult) DischargeM3S() (*timeseries.Series, error) {
	return hydro.DischargeM3S(r.Discharge, r.areaKM2)
}

// DriestStormWindowContext returns the hour offset (from the forcing
// start) at the end of the driest windowDays stretch of the catchment's
// forcing record — the placement at which an injected design storm best
// isolates land-use effects (on saturated ground all scenarios converge
// because runoff approaches rainfall). The scan over candidate
// placements checks ctx periodically, so an abandoned request stops
// burning CPU on a long forcing record.
func (o *Observatory) DriestStormWindowContext(ctx context.Context, catchmentID string, windowDays int) (int, error) {
	if windowDays < 1 {
		return 0, fmt.Errorf("windowDays %d: %w", windowDays, ErrBadConfig)
	}
	f, err := o.Forcing(catchmentID)
	if err != nil {
		return 0, err
	}
	window := windowDays * 24
	if window+48 >= f.Rain.Len() {
		return 0, fmt.Errorf("forcing record too short for %d-day window: %w", windowDays, ErrBadConfig)
	}
	bestStart, bestSum := window, math.Inf(1)
	for start, iter := window, 0; start+48 < f.Rain.Len(); start, iter = start+24, iter+1 {
		if iter%32 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("storm window scan canceled: %w", err)
			}
		}
		sum := 0.0
		for i := start - window; i < start; i++ {
			sum += f.Rain.At(i)
		}
		if sum < bestSum {
			bestSum, bestStart = sum, start
		}
	}
	return bestStart, nil
}

// cacheKey renders every field that influences a run's output into a
// deterministic string. Float fields print with %v (Go's shortest
// round-tripping form), so distinct values yield distinct keys.
func (r RunRequest) cacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c=%s|s=%s|m=%s|d=%s|at=%d", r.CatchmentID, r.ScenarioID, r.Model, r.RainDatasetID, r.StormAtHours)
	if r.TOPMODELParams != nil {
		fmt.Fprintf(&b, "|p=%v", *r.TOPMODELParams)
	}
	if r.Storm != nil {
		fmt.Fprintf(&b, "|storm=%v", *r.Storm)
	}
	return b.String()
}

// maxHours is the largest hour count a time.Duration holds.
const maxHours = math.MaxInt64 / int64(time.Hour)

// checkHours refuses an hour count beyond ±maxHours with ErrBadConfig:
// converted with time.Duration(h) * time.Hour it would wrap around
// int64 and name some other duration.
func checkHours(name string, h int) error {
	if int64(h) > maxHours || int64(h) < -maxHours {
		return fmt.Errorf("%s %d beyond ±%d hours: %w", name, h, maxHours, ErrBadConfig)
	}
	return nil
}

// familyKey groups run requests whose results are acceptable substitutes
// under degradation: same catchment, scenario, model and dataset, but
// any storm window or parameter tweak. It keys the run cache's stale
// fallback index.
func (r RunRequest) familyKey() string {
	return fmt.Sprintf("c=%s|s=%s|m=%s|d=%s", r.CatchmentID, r.ScenarioID, r.Model, r.RainDatasetID)
}

// RunModelCached is RunModelCachedContext under a background context.
// It is the one background-context wrapper left in the API because the
// benchmark module (perfbench/) calls it by name; new code passes a
// context to RunModelCachedContext.
func (o *Observatory) RunModelCached(req RunRequest) (*RunResult, runcache.Outcome, error) {
	return o.RunModelCachedContext(context.Background(), req)
}

// RunModelCachedContext executes a model run on demand. This is the
// computation the WPS processes and the portal's modelling widget
// invoke. Identical requests are answered from a bounded LRU cache, and
// concurrent duplicates coalesce onto a single simulation; the returned
// RunResult is shared and must not be mutated. The outcome reports
// whether the result was computed (miss), served from cache (hit),
// shared with a concurrent identical request (coalesced) or abandoned
// (canceled). A canceled caller stops waiting immediately, and the
// underlying simulation is abandoned only once every coalesced waiter
// has gone. Every completed run also refreshes its family's stale
// fallback (see StaleRun). A request checkRun refuses gets its error
// before the run key is built.
func (o *Observatory) RunModelCachedContext(ctx context.Context, req RunRequest) (*RunResult, runcache.Outcome, error) {
	if err := o.checkRun(req); err != nil {
		return nil, runcache.Miss, err
	}
	return o.runs.DoFamily(ctx, req.cacheKey(), req.familyKey(), func(ctx context.Context) (*RunResult, error) {
		return o.runModel(ctx, req)
	})
}

// StaleRun returns the last completed run for the request's family
// (same catchment, scenario, model and dataset — any storm window or
// parameters), if one exists. The portal serves it, marked degraded,
// when the model-run class is saturated: a stale hydrograph widens the
// circle further than a 503. A request checkRun refuses gets the error
// RunModelCachedContext would return, not a stale run.
func (o *Observatory) StaleRun(req RunRequest) (*RunResult, bool, error) {
	if err := o.checkRun(req); err != nil {
		return nil, false, err
	}
	res, ok := o.runs.Stale(req.familyKey())
	return res, ok, nil
}

// checkRun refuses, without resolving any forcing, a request the run
// itself would refuse: an hour count a time.Duration cannot hold, an
// unknown catchment, scenario or model, an invalid design storm, and
// TOPMODEL parameters that are invalid once the scenario adjusts them.
func (o *Observatory) checkRun(req RunRequest) error {
	if err := checkHours("stormAtHours", req.StormAtHours); err != nil {
		return err
	}
	if _, ok := o.Catchments.Get(req.CatchmentID); !ok {
		return fmt.Errorf("catchment %q: %w", req.CatchmentID, ErrUnknownCatchment)
	}
	scnID := req.ScenarioID
	if scnID == "" {
		scnID = scenario.Baseline
	}
	scn, err := scenario.Get(scnID)
	if err != nil {
		return err
	}
	if req.Storm != nil {
		if err := req.Storm.Validate(); err != nil {
			return fmt.Errorf("injecting storm: %w", err)
		}
	}
	switch req.Model {
	case "topmodel":
		if req.TOPMODELParams != nil {
			return scn.ApplyTOPMODEL(*req.TOPMODELParams).Validate()
		}
	case "fuse":
	default:
		return fmt.Errorf("%q: %w", req.Model, ErrUnknownModel)
	}
	return nil
}

// runModel is the uncached simulation behind RunModelCachedContext. Its
// ctx is the flight's: detached from any single requester and canceled
// only when no requester remains interested.
func (o *Observatory) runModel(ctx context.Context, req RunRequest) (*RunResult, error) {
	start := time.Now()
	defer func() { o.modelRunSeconds.RecordSince(start) }()
	c, ok := o.Catchments.Get(req.CatchmentID)
	if !ok {
		return nil, fmt.Errorf("catchment %q: %w", req.CatchmentID, ErrUnknownCatchment)
	}
	// RunResult.DischargeM3S converts with this area on demand; refuse
	// one it could not convert before paying for the simulation.
	if !(c.AreaKM2 > 0) {
		return nil, fmt.Errorf("catchment %q area %v km2: %w", req.CatchmentID, c.AreaKM2, hydro.ErrBadParam)
	}
	scnID := req.ScenarioID
	if scnID == "" {
		scnID = scenario.Baseline
	}
	scn, err := scenario.Get(scnID)
	if err != nil {
		return nil, err
	}
	forcing, err := o.Forcing(req.CatchmentID)
	if err != nil {
		return nil, err
	}
	if req.RainDatasetID != "" {
		rain, err := o.Dataset(req.RainDatasetID)
		if err != nil {
			return nil, err
		}
		aligned, err := timeseries.Align(time.Hour,
			[]*timeseries.Series{rain, forcing.PET},
			[]timeseries.AggFunc{timeseries.AggSum, timeseries.AggSum})
		if err != nil {
			return nil, fmt.Errorf("aligning uploaded rain with PET: %w", err)
		}
		forcing = hydro.Forcing{Rain: aligned[0], PET: aligned[1]}
	}
	if req.Storm != nil {
		at := o.cfg.Start.Add(time.Duration(req.StormAtHours) * time.Hour)
		rain, err := req.Storm.Inject(forcing.Rain, at)
		if err != nil {
			return nil, fmt.Errorf("injecting storm: %w", err)
		}
		forcing = hydro.Forcing{Rain: rain, PET: forcing.PET}
	}

	// Inputs are resolved and validated; from here on the work is pure
	// simulation. Honour an abandonment that happened while resolving, and
	// give the test seam its chance to slow the kernel down.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model run canceled: %w", err)
	}
	o.mu.Lock()
	hook := o.runHook
	o.mu.Unlock()
	if hook != nil {
		if err := hook(ctx, req); err != nil {
			return nil, err
		}
	}

	var q *timeseries.Series
	switch req.Model {
	case "topmodel":
		params := topmodel.DefaultParams()
		if req.TOPMODELParams != nil {
			params = *req.TOPMODELParams
		}
		params = scn.ApplyTOPMODEL(params)
		ti, err := c.TopoIndexDistribution()
		if err != nil {
			return nil, fmt.Errorf("deriving terrain: %w", err)
		}
		m, err := topmodel.New(params, ti)
		if err != nil {
			return nil, err
		}
		q, err = m.Run(forcing)
		if err != nil {
			return nil, err
		}
	case "fuse":
		params := scn.ApplyFUSE(fuse.DefaultParams())
		decs := []fuse.Decisions{
			{Upper: fuse.UpperSingle, Perc: fuse.PercFieldCap, Base: fuse.BaseLinear, Routing: fuse.RouteGammaUH},
			{Upper: fuse.UpperTensionFree, Perc: fuse.PercWaterContent, Base: fuse.BasePower, Routing: fuse.RouteGammaUH},
			{Upper: fuse.UpperTensionFree, Perc: fuse.PercFieldCap, Base: fuse.BaseParallel, Routing: fuse.RouteGammaUH},
		}
		ens, err := fuse.RunEnsembleOn(ctx, o.Sched, decs, params, forcing)
		if err != nil {
			return nil, err
		}
		q = ens.Mean
	default:
		return nil, fmt.Errorf("%q: %w", req.Model, ErrUnknownModel)
	}

	st := q.Summarise()
	rainVol := forcing.Rain.Summarise().Sum
	ratio := 0.0
	if rainVol > 0 {
		ratio = st.Sum / rainVol
	}
	// Parameters or rainfall far outside any catchment's range can drive
	// the kernel past float64's range. Such a hydrograph means nothing
	// and its summary has no JSON form, so the request is refused.
	if st.N != q.Len() || math.IsNaN(st.Sum) || math.IsInf(st.Sum, 0) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("%s run left the float64 range: %w", req.Model, ErrBadConfig)
	}
	res := &RunResult{
		Discharge:   q,
		PeakMM:      st.Max,
		PeakAt:      q.TimeAt(st.ArgMax),
		VolumeMM:    st.Sum,
		RunoffRatio: ratio,
		Model:       req.Model,
		Scenario:    scnID,
		areaKM2:     c.AreaKM2,
	}
	if req.Storm != nil {
		stormAt := o.cfg.Start.Add(time.Duration(req.StormAtHours) * time.Hour)
		win, err := q.Slice(stormAt, stormAt.Add(48*time.Hour))
		if err == nil && win.Len() > 0 {
			wst := win.Summarise()
			res.StormPeakMM = wst.Max
			res.StormPeakAt = win.TimeAt(wst.ArgMax)
		}
	}
	return res, nil
}

// QualityResult is the water-quality widget output: pollutant export
// under a scenario, plus the baseline for comparison.
type QualityResult struct {
	// Scenario echoes the request.
	Scenario string `json:"scenario"`
	// Loads are the scenario's exports over the simulation period.
	Loads quality.Loads `json:"loads"`
	// BaselineLoads are the same catchment and forcing under baseline
	// land use.
	BaselineLoads quality.Loads `json:"baselineLoads"`
	// SedimentChange, PhosphorusChange, NitrateChange are fractional
	// changes vs baseline (+0.5 = +50%).
	SedimentChange   float64 `json:"sedimentChange"`
	PhosphorusChange float64 `json:"phosphorusChange"`
	NitrateChange    float64 `json:"nitrateChange"`
}

// RunQualityContext answers the water-quality storyboard from Section
// VI: run the hydrology under a scenario, export sediment and nutrients,
// and compare with baseline land use. The baseline and scenario model
// runs each honour cancellation.
func (o *Observatory) RunQualityContext(ctx context.Context, catchmentID, scenarioID string) (*QualityResult, error) {
	c, ok := o.Catchments.Get(catchmentID)
	if !ok {
		return nil, fmt.Errorf("catchment %q: %w", catchmentID, ErrUnknownCatchment)
	}
	if scenarioID == "" {
		scenarioID = scenario.Baseline
	}
	scn, err := scenario.Get(scenarioID)
	if err != nil {
		return nil, err
	}
	loadsFor := func(sc scenario.Scenario) (quality.Loads, error) {
		run, _, err := o.RunModelCachedContext(ctx, RunRequest{
			CatchmentID: catchmentID, Model: "topmodel", ScenarioID: sc.ID,
		})
		if err != nil {
			return quality.Loads{}, err
		}
		loads, err := quality.Export(run.Discharge, c.AreaKM2, sc.ApplyQuality(quality.DefaultParams()))
		if err != nil {
			return quality.Loads{}, err
		}
		return *loads, nil
	}
	base, err := scenario.Get(scenario.Baseline)
	if err != nil {
		return nil, err
	}
	baseLoads, err := loadsFor(base)
	if err != nil {
		return nil, fmt.Errorf("baseline quality run: %w", err)
	}
	scnLoads := baseLoads
	if scenarioID != scenario.Baseline {
		scnLoads, err = loadsFor(scn)
		if err != nil {
			return nil, fmt.Errorf("scenario quality run: %w", err)
		}
	}
	change := func(now, was float64) float64 {
		if was == 0 {
			return 0
		}
		return now/was - 1
	}
	return &QualityResult{
		Scenario:         scenarioID,
		Loads:            scnLoads,
		BaselineLoads:    baseLoads,
		SedimentChange:   change(scnLoads.SedimentTonnes, baseLoads.SedimentTonnes),
		PhosphorusChange: change(scnLoads.PhosphorusKg, baseLoads.PhosphorusKg),
		NitrateChange:    change(scnLoads.NitrateKg, baseLoads.NitrateKg),
	}, nil
}

// NationalLoads is one scenario's aggregated pollutant export across a
// set of catchments — the paper's second motivating question ("what
// could be done to reduce diffuse pollution affecting the North Sea?")
// needs every policy's total load, not one catchment's.
type NationalLoads struct {
	// Scenario is the policy applied in every catchment.
	Scenario string `json:"scenario"`
	// Total sums the catchment exports.
	Total quality.Loads `json:"total"`
	// PerCatchment holds each catchment's own exports.
	PerCatchment map[string]quality.Loads `json:"perCatchment"`
}

// RunNationalQualityContext fans every (catchment, scenario) quality
// run out across the shared compute pool as bulk-class work and
// aggregates the exports per scenario. A nil catchmentIDs means every
// registered catchment, a nil scenarioIDs every scenario; a duplicate ID
// in either list is rejected, since it would count its loads twice in
// the totals. The result is identical to the sequential nested loop for
// any pool size: runs are collected by index and summed in catchment
// order within each scenario; only the wall-clock differs.
func (o *Observatory) RunNationalQualityContext(ctx context.Context, catchmentIDs, scenarioIDs []string) (map[string]*NationalLoads, error) {
	if catchmentIDs == nil {
		for _, c := range o.Catchments.All() {
			catchmentIDs = append(catchmentIDs, c.ID)
		}
	}
	if scenarioIDs == nil {
		for _, sc := range scenario.All() {
			scenarioIDs = append(scenarioIDs, sc.ID)
		}
	}
	if len(catchmentIDs) == 0 || len(scenarioIDs) == 0 {
		return nil, fmt.Errorf("empty national sweep: %w", ErrBadConfig)
	}
	for _, ids := range [][]string{catchmentIDs, scenarioIDs} {
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				return nil, fmt.Errorf("duplicate ID %q in national sweep: %w", id, ErrBadConfig)
			}
			seen[id] = true
		}
	}
	type pair struct{ cid, sid string }
	pairs := make([]pair, 0, len(catchmentIDs)*len(scenarioIDs))
	for _, sid := range scenarioIDs {
		for _, cid := range catchmentIDs {
			pairs = append(pairs, pair{cid, sid})
		}
	}
	results, err := sched.Map(ctx, o.Sched, sched.ClassBulk, len(pairs), func(i int) (*QualityResult, error) {
		res, err := o.RunQualityContext(ctx, pairs[i].cid, pairs[i].sid)
		if err != nil {
			return nil, fmt.Errorf("quality for %s under %s: %w", pairs[i].cid, pairs[i].sid, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*NationalLoads, len(scenarioIDs))
	for i, p := range pairs {
		nl := out[p.sid]
		if nl == nil {
			nl = &NationalLoads{Scenario: p.sid, PerCatchment: make(map[string]quality.Loads, len(catchmentIDs))}
			out[p.sid] = nl
		}
		loads := results[i].Loads
		nl.PerCatchment[p.cid] = loads
		nl.Total.SedimentTonnes += loads.SedimentTonnes
		nl.Total.PhosphorusKg += loads.PhosphorusKg
		nl.Total.NitrateKg += loads.NitrateKg
	}
	return out, nil
}

// modelProcess adapts RunModelCachedContext to the WPS Process interface.
type modelProcess struct {
	obs   *Observatory
	model string
}

var _ wps.Process = (*modelProcess)(nil)

func (p *modelProcess) Identifier() string { return p.model }

func (p *modelProcess) Title() string {
	if p.model == "topmodel" {
		return "TOPMODEL rainfall-runoff simulation"
	}
	return "FUSE ensemble rainfall-runoff simulation"
}

func (p *modelProcess) Abstract() string {
	return "Runs " + p.model + " for a LEFT catchment under a land-use scenario and returns the flood hydrograph."
}

func (p *modelProcess) Inputs() []wps.ParamDesc {
	return []wps.ParamDesc{
		{Identifier: "catchment", Title: "Catchment ID", DataType: "string"},
		{Identifier: "scenario", Title: "Scenario ID", DataType: "string", Optional: true},
		{Identifier: "stormDepthMm", Title: "Design storm depth (mm)", DataType: "double", Optional: true},
		{Identifier: "stormHours", Title: "Design storm duration (h)", DataType: "integer", Optional: true},
		{Identifier: "stormAtHours", Title: "Storm start (h after record start)", DataType: "integer", Optional: true},
	}
}

func (p *modelProcess) Outputs() []wps.ParamDesc {
	return []wps.ParamDesc{
		{Identifier: "hydrograph", Title: "Flot-encoded discharge series", DataType: "string"},
		{Identifier: "peakMm", Title: "Peak flow (mm/h)", DataType: "double"},
		{Identifier: "volumeMm", Title: "Flow volume (mm)", DataType: "double"},
	}
}

func (p *modelProcess) Execute(ctx context.Context, inputs map[string]wps.Value) (map[string]wps.Value, error) {
	req := RunRequest{
		CatchmentID: inputs["catchment"].String(),
		ScenarioID:  inputs["scenario"].String(),
		Model:       p.model,
	}
	if d := inputs["stormDepthMm"].String(); d != "" {
		depth, err := strconv.ParseFloat(d, 64)
		if err != nil {
			return nil, fmt.Errorf("stormDepthMm: %w", err)
		}
		hours := 6
		if h := inputs["stormHours"].String(); h != "" {
			hours, err = strconv.Atoi(h)
			if err != nil {
				return nil, fmt.Errorf("stormHours: %w", err)
			}
			if err := checkHours("stormHours", hours); err != nil {
				return nil, err
			}
		}
		req.Storm = &weather.DesignStorm{
			TotalDepthMM: depth,
			Duration:     time.Duration(hours) * time.Hour,
			PeakFraction: 0.4,
		}
		if at := inputs["stormAtHours"].String(); at != "" {
			req.StormAtHours, err = strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("stormAtHours: %w", err)
			}
		}
	}
	res, _, err := p.obs.RunModelCachedContext(ctx, req)
	if err != nil {
		return nil, err
	}
	// The hydrograph is the cached run's own series: WPS streams it into
	// the response, and a workflow passes it on by reference.
	return map[string]wps.Value{
		"hydrograph": wps.SeriesValue(res.Discharge),
		"peakMm":     wps.Literal(strconv.FormatFloat(res.PeakMM, 'g', -1, 64)),
		"volumeMm":   wps.Literal(strconv.FormatFloat(res.VolumeMM, 'g', -1, 64)),
	}, nil
}

// LowFlowResult is the drought widget output: the low-flow report under
// a scenario, with the baseline for comparison.
type LowFlowResult struct {
	Scenario string          `json:"scenario"`
	Summary  lowflow.Summary `json:"summary"`
	Baseline lowflow.Summary `json:"baseline"`
}

// RunLowFlowContext answers the drought-side questions (the paper's
// motivation cites droughts alongside floods): flow-duration quantiles,
// baseflow index and sub-Q90 drought spells under a land-use scenario.
// The baseline and scenario model runs each honour cancellation.
func (o *Observatory) RunLowFlowContext(ctx context.Context, catchmentID, scenarioID string) (*LowFlowResult, error) {
	if scenarioID == "" {
		scenarioID = scenario.Baseline
	}
	if _, err := scenario.Get(scenarioID); err != nil {
		return nil, err
	}
	analyseFor := func(sc string) (lowflow.Summary, error) {
		run, _, err := o.RunModelCachedContext(ctx, RunRequest{CatchmentID: catchmentID, Model: "topmodel", ScenarioID: sc})
		if err != nil {
			return lowflow.Summary{}, err
		}
		s, err := lowflow.Analyse(run.Discharge)
		if err != nil {
			return lowflow.Summary{}, err
		}
		return *s, nil
	}
	base, err := analyseFor(scenario.Baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline low-flow run: %w", err)
	}
	summary := base
	if scenarioID != scenario.Baseline {
		summary, err = analyseFor(scenarioID)
		if err != nil {
			return nil, fmt.Errorf("scenario low-flow run: %w", err)
		}
	}
	return &LowFlowResult{Scenario: scenarioID, Summary: summary, Baseline: base}, nil
}

// hydroStatsProcess summarises a hydrograph — the generic
// post-processing node workflow compositions chain after a model run.
// It is a workflow process only; WPS does not offer it.
type hydroStatsProcess struct{}

var _ wps.Process = hydroStatsProcess{}

func (hydroStatsProcess) Identifier() string { return "hydrostats" }

func (hydroStatsProcess) Title() string { return "Hydrograph statistics" }

func (hydroStatsProcess) Abstract() string {
	return "Summarises a discharge series: peak, total volume and mean flow."
}

func (hydroStatsProcess) Inputs() []wps.ParamDesc {
	return []wps.ParamDesc{{Identifier: "hydrograph", Title: "Flot-encoded discharge series", DataType: "string"}}
}

func (hydroStatsProcess) Outputs() []wps.ParamDesc {
	return []wps.ParamDesc{
		{Identifier: "peakMm", Title: "Peak flow (mm/h)", DataType: "double"},
		{Identifier: "volumeMm", Title: "Flow volume (mm)", DataType: "double"},
		{Identifier: "meanMm", Title: "Mean flow (mm/h)", DataType: "double"},
	}
}

// Execute reads a series input directly and parses a literal one as
// Flot text. Both give bit-identical results: Flot round-trips every
// finite value and writes ±Inf as null, which parses back as NaN.
func (hydroStatsProcess) Execute(_ context.Context, inputs map[string]wps.Value) (map[string]wps.Value, error) {
	peak, sum, n := 0.0, 0.0, 0
	add := func(v float64) {
		if v > peak {
			peak = v
		}
		sum += v
		n++
	}
	in := inputs["hydrograph"]
	if s := in.Series(); s != nil {
		for _, v := range s.Raw() {
			if math.IsInf(v, 0) {
				v = math.NaN()
			}
			add(v)
		}
	} else {
		raw := in.String()
		if raw == "" {
			return nil, fmt.Errorf("hydrostats: missing hydrograph input")
		}
		ir, err := timeseries.ParseFlotJSON([]byte(raw))
		if err != nil {
			return nil, fmt.Errorf("hydrostats: %w", err)
		}
		for i := 0; i < ir.Len(); i++ {
			add(ir.At(i).Value)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("hydrostats: empty hydrograph")
	}
	return map[string]wps.Value{
		"peakMm":   wps.Literal(strconv.FormatFloat(peak, 'g', -1, 64)),
		"volumeMm": wps.Literal(strconv.FormatFloat(sum, 'g', -1, 64)),
		"meanMm":   wps.Literal(strconv.FormatFloat(sum/float64(n), 'g', -1, 64)),
	}, nil
}
