// Package sensor simulates the in-situ environmental sensor deployments
// behind the LEFT exemplar (paper Section V-B): river level gauges, rain
// gauges, water temperature and turbidity probes, and webcams in the
// three study catchments. The paper's stakeholders asked for "live access
// to rainfall and river level sensors in their catchments"; this package
// provides the live feeds the portal and the SOS service serve.
//
// Each sensor samples a deterministic driver function on a clock.Clock,
// so the "live" feeds are reproducible in tests and experiments.
//
// Storage is sharded per sensor: every sensor owns its history, webcam
// ring, ingest sequence and read/write lock, so the portal's read path
// (the zero-copy HistoryView, Latest, FrameNearest and aggregates) never
// contends with ingest on other sensors. Only registration, lifecycle
// and the network-wide "newest reading" live on a small network-level
// lock.
package sensor

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/metrics"
	"evop/internal/push"
	"evop/internal/timeseries"
)

// Common errors.
var (
	// ErrNotFound indicates an unknown sensor ID.
	ErrNotFound = errors.New("sensor: not found")
	// ErrBadSensor indicates an invalid sensor definition.
	ErrBadSensor = errors.New("sensor: invalid definition")
	// ErrNoData indicates a query with no matching readings.
	ErrNoData = errors.New("sensor: no data")
)

// Kind is the sensor modality.
type Kind int

// Sensor kinds deployed in the LEFT catchments.
const (
	RiverLevel Kind = iota + 1
	RainGauge
	WaterTemperature
	Turbidity
	Webcam
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case RiverLevel:
		return "riverLevel"
	case RainGauge:
		return "rainGauge"
	case WaterTemperature:
		return "waterTemperature"
	case Turbidity:
		return "turbidity"
	case Webcam:
		return "webcam"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unit returns the measurement unit for the kind.
func (k Kind) Unit() string {
	switch k {
	case RiverLevel:
		return "m"
	case RainGauge:
		return "mm"
	case WaterTemperature:
		return "degC"
	case Turbidity:
		return "NTU"
	case Webcam:
		return "frame"
	default:
		return ""
	}
}

// Driver produces the physical value a sensor reads at a given time.
type Driver func(t time.Time) float64

// Sensor describes one deployed device.
type Sensor struct {
	// ID identifies the sensor ("morland-level-1").
	ID string `json:"id"`
	// Kind is the modality.
	Kind Kind `json:"kind"`
	// Location is the deployment position.
	Location geo.Point `json:"location"`
	// CatchmentID links the sensor to its catchment.
	CatchmentID string `json:"catchmentId"`
	// Interval is the sampling period.
	Interval time.Duration `json:"interval"`
	// Driver supplies values (ignored for webcams).
	Driver Driver `json:"-"`
}

// Validate checks the definition.
func (s Sensor) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("empty ID: %w", ErrBadSensor)
	}
	if s.Kind < RiverLevel || s.Kind > Webcam {
		return fmt.Errorf("sensor %s kind %d: %w", s.ID, int(s.Kind), ErrBadSensor)
	}
	if err := s.Location.Validate(); err != nil {
		return fmt.Errorf("sensor %s: %w", s.ID, err)
	}
	if s.Interval <= 0 {
		return fmt.Errorf("sensor %s interval %v: %w", s.ID, s.Interval, ErrBadSensor)
	}
	if s.Kind != Webcam && s.Driver == nil {
		return fmt.Errorf("sensor %s has no driver: %w", s.ID, ErrBadSensor)
	}
	return nil
}

// Reading is one timestamped measurement from a sensor.
type Reading struct {
	SensorID string    `json:"sensorId"`
	Kind     Kind      `json:"kind"`
	Time     time.Time `json:"time"`
	Value    float64   `json:"value"`
}

// Frame is one webcam image. Content is an opaque synthetic payload (a
// real deployment would carry JPEG bytes; the fusion and serving paths
// only need timestamped opaque blobs).
type Frame struct {
	SensorID string    `json:"sensorId"`
	Time     time.Time `json:"time"`
	Content  []byte    `json:"content"`
}

// sensorRollupTiers is the bucket ladder kept per non-webcam sensor.
// The finest tier matches the fastest LEFT cadence (15-minute level
// gauges) so index memory stays a small fraction of the raw store; the
// coarse tiers carry month- and year-wide aggregate buckets in under two
// hundred bucket merges.
var sensorRollupTiers = []time.Duration{15 * time.Minute, 6 * time.Hour, 120 * time.Hour}

// Ingest accepts sampling times in [now-maxIngestAge, now+maxIngestLead]
// on the network clock: a year back for a gauge's delayed upload, a day
// ahead for a gauge clock running fast. Every rollup tier keeps a dense
// bucket run over its sensor's whole extent, so one reading stamped 1700
// after a 2019 one would grow it by 11M quarter-hour buckets (356 MiB),
// and past 2262 UnixNano is undefined.
const (
	maxIngestAge  = 366 * 24 * time.Hour
	maxIngestLead = 24 * time.Hour
)

// DefaultFrameRetention bounds each webcam's frame ring: about a year of
// the standard hourly LEFT webcam cadence. Older frames are evicted
// oldest-first; the ingest counter (and Latest's frame count) keeps
// running across evictions.
const DefaultFrameRetention = 8192

// shard is one sensor's private store. Its RWMutex orders the single
// sampling writer against any number of readers; because the history is
// append-only (timeseries.Irregular copies on out-of-order insert),
// readers can release the lock and keep iterating a WindowView while
// ingest continues.
type shard struct {
	mu      sync.RWMutex
	history *timeseries.Irregular
	frames  frameRing
	// seq counts ingests (readings or frames); it is the freshness stamp
	// conditional requests key their ETags on.
	seq  uint64
	last time.Time
}

// frameRing is a bounded ring of webcam frames in capture order.
type frameRing struct {
	buf   []Frame
	start int    // index of the oldest retained frame
	n     int    // retained count
	total uint64 // frames ever captured
}

func (r *frameRing) push(f Frame, limit int) {
	if r.buf == nil {
		r.buf = make([]Frame, limit)
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = f
		r.n++
	} else {
		r.buf[r.start] = f
		r.start = (r.start + 1) % len(r.buf)
	}
	r.total++
}

// at returns retained frame i, 0 = oldest. Frames are pushed in sample
// order on a monotonic clock, so logical order is time order even after
// the ring wraps.
func (r *frameRing) at(i int) Frame { return r.buf[(r.start+i)%len(r.buf)] }

// Network manages a set of sensors emitting on a shared clock.
type Network struct {
	clk clock.Clock

	// hub fans readings out to live subscribers. Every reading is
	// published on its sensor topic, its catchment topic and the
	// all-sensors firehose; the portal's /ws/live endpoint and every
	// in-process feed subscribe to it through SubscribeTopics.
	hub *push.Hub[Reading]

	// reg registers each hub's instruments. Stop closes every
	// subscription and installs a fresh hub so the network can be
	// restarted; the registry's get-or-create keeps the hub counters
	// cumulative across that swap.
	reg *metrics.Registry

	// mu guards registration, lifecycle, the hub pointer and the
	// network-wide newest reading. Per-sensor data lives on the shards;
	// read queries take mu only briefly (RLock) to resolve id → shard.
	mu      sync.RWMutex
	sensors map[string]Sensor
	shards  map[string]*shard
	order   []string
	running bool
	stops   []func() bool // one sampling timer per sensor while running
	// newest is the most recent reading across the whole network,
	// maintained on ingest so "what time is it, by the data?" queries
	// (the portal's now-fallback on every series/fusion request) are O(1)
	// instead of a per-sensor scan.
	newest    Reading
	hasNewest bool

	// Read-path counters, registered in the observatory's metrics
	// registry when the network is built with one.
	seriesQueries   *metrics.Counter
	aggQueries      *metrics.Counter
	rollupFallbacks *metrics.Counter
	externalIngests *metrics.Counter
}

// NewNetwork returns an empty network on the given clock, recording its
// read-path counters and push-hub fan-out instruments in reg (nil keeps
// them private and unregistered).
func NewNetwork(clk clock.Clock, reg *metrics.Registry) (*Network, error) {
	if clk == nil {
		return nil, fmt.Errorf("nil clock: %w", ErrBadSensor)
	}
	return &Network{
		clk:     clk,
		hub:     push.NewHub[Reading](reg, "sensors"),
		reg:     reg,
		sensors: make(map[string]Sensor),
		shards:  make(map[string]*shard),
		seriesQueries: reg.Counter("evop_sensor_series_queries_total",
			"Zero-copy series window views served."),
		aggQueries: reg.Counter("evop_sensor_aggregate_queries_total",
			"Rollup-index aggregate queries."),
		rollupFallbacks: reg.Counter("evop_sensor_rollup_fallbacks_total",
			"Aggregate queries served by a raw scan (unindexed history)."),
		externalIngests: reg.Counter("evop_sensor_external_ingest_total",
			"Observations pushed in from outside (SOS InsertObservation)."),
	}, nil
}

// Add registers a sensor. Sensors must be added before Start.
func (n *Network) Add(s Sensor) error {
	if err := s.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		return fmt.Errorf("network already started: %w", ErrBadSensor)
	}
	if _, ok := n.sensors[s.ID]; ok {
		return fmt.Errorf("duplicate sensor %s: %w", s.ID, ErrBadSensor)
	}
	n.sensors[s.ID] = s
	n.order = append(n.order, s.ID)
	sh := &shard{history: timeseries.NewIrregular(nil)}
	if s.Kind != Webcam {
		// The rollup tiers are fixed and valid; EnableRollups on an empty
		// history cannot fail.
		if err := sh.history.EnableRollups(sensorRollupTiers...); err != nil {
			return fmt.Errorf("sensor %s rollups: %w", s.ID, err)
		}
	}
	n.shards[s.ID] = sh
	return nil
}

// Sensors lists registered sensors in registration order.
func (n *Network) Sensors() []Sensor {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Sensor, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.sensors[id])
	}
	return out
}

// Len returns the number of sensors. The network only grows (there is
// no removal, and Add refuses while it runs), so Len is an exact
// generation of the sensor list.
func (n *Network) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.order)
}

// Get returns one sensor.
func (n *Network) Get(id string) (Sensor, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.sensors[id]
	if !ok {
		return Sensor{}, fmt.Errorf("%s: %w", id, ErrNotFound)
	}
	return s, nil
}

// shardOf resolves a sensor ID to its definition and shard.
func (n *Network) shardOf(id string) (Sensor, *shard, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.sensors[id]
	if !ok {
		return Sensor{}, nil, fmt.Errorf("%s: %w", id, ErrNotFound)
	}
	return s, n.shards[id], nil
}

// Start begins sampling every sensor on its interval. Idempotent.
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		return
	}
	n.running = true
	// Add refuses while the network runs, so each sensor's definition
	// and shard are fixed for the life of its timer.
	for _, id := range n.order {
		s, sh := n.sensors[id], n.shards[id]
		n.stops = append(n.stops, n.clk.Every(s.Interval, func() {
			now := n.clk.Now()
			var v float64
			if s.Kind != Webcam {
				v = s.Driver(now)
			}
			n.record(s, sh, now, v)
		}))
	}
}

// record files one reading of s at time at in its shard and fans it out;
// sampled and ingested readings both come through here. It appends to
// the history (a webcam captures a frame instead, and its reading's
// value is the frame count), bumps the ingest stamp (seq++, last =
// max(last, at)), refreshes the network's O(1) newest-reading cache and
// publishes on the sensor, catchment and firehose topics. Only the
// sensor's own shard is locked for the append; the network lock is
// taken just for the newest-reading cache. It returns the seq it
// assigned, read under the same shard lock, so the stamp belongs to
// this reading even while other readings of the sensor land.
func (n *Network) record(s Sensor, sh *shard, at time.Time, value float64) uint64 {
	r := Reading{SensorID: s.ID, Kind: s.Kind, Time: at, Value: value}
	sh.mu.Lock()
	if s.Kind == Webcam {
		sh.frames.push(Frame{SensorID: s.ID, Time: at, Content: synthFrame(s.ID, at)}, DefaultFrameRetention)
		r.Value = float64(sh.frames.total)
	} else {
		sh.history.Add(timeseries.Observation{Time: at, Value: value})
	}
	sh.seq++
	seq := sh.seq
	if at.After(sh.last) {
		sh.last = at
	}
	sh.mu.Unlock()

	n.mu.Lock()
	if !n.hasNewest || !r.Time.Before(n.newest.Time) {
		n.newest, n.hasNewest = r, true
	}
	hub := n.hub
	n.mu.Unlock()

	// Fan out past the locks: hub delivery is bounded and non-blocking,
	// but keeping it off the mutexes means a storm of slow subscribers
	// can never delay the next sensor sample.
	hub.Publish(r, push.TopicSensor(s.ID), push.TopicCatchment(s.CatchmentID), push.TopicAllSensors)
	return seq
}

// Ingest records an externally supplied observation for a non-webcam
// sensor — the write path behind the SOS InsertObservation binding, so
// community-deployed gauges can push readings into the observatory
// rather than only being sampled by it. The observation lands in the
// sensor's shard exactly like a sampled reading (history, rollups, seq
// stamp, newest cache) and fans out to live subscribers.
// A sampling time outside the ingest window (see maxIngestAge) or a
// non-finite value is refused with ErrBadSensor.
func (n *Network) Ingest(id string, at time.Time, value float64) error {
	_, err := n.IngestSeq(id, at, value)
	return err
}

// IngestSeq is Ingest returning the ingest sequence number (the
// ReadStamp.Seq) the observation was stamped with. The number is taken
// under the lock that files the observation, so concurrent ingests and
// sampler ticks can never hand two observations the same one.
func (n *Network) IngestSeq(id string, at time.Time, value float64) (uint64, error) {
	s, sh, err := n.shardOf(id)
	if err != nil {
		return 0, err
	}
	if s.Kind == Webcam {
		return 0, fmt.Errorf("%s is a webcam, not an observation sensor: %w", id, ErrBadSensor)
	}
	now := n.clk.Now()
	if earliest, latest := now.Add(-maxIngestAge), now.Add(maxIngestLead); at.Before(earliest) || at.After(latest) {
		return 0, fmt.Errorf("%s: sampling time %s outside [%s, %s]: %w", id,
			at.Format(time.RFC3339), earliest.Format(time.RFC3339), latest.Format(time.RFC3339), ErrBadSensor)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return 0, fmt.Errorf("%s: non-finite observation value: %w", id, ErrBadSensor)
	}
	n.externalIngests.Add(1)
	return n.record(s, sh, at, value), nil
}

// synthFrame builds a deterministic opaque frame payload.
func synthFrame(id string, at time.Time) []byte {
	stamp := id + "@" + at.UTC().Format(time.RFC3339)
	content := make([]byte, 64)
	for i := range content {
		content[i] = stamp[i%len(stamp)] ^ byte(i*31)
	}
	return content
}

// Stop halts sampling and closes every subscriber channel, so feed
// consumers observe end-of-stream instead of blocking forever on a dead
// network. The network can be restarted: a fresh hub replaces the closed
// one, and SubscribeTopics works again (cumulative drop counts are
// preserved).
func (n *Network) Stop() {
	n.mu.Lock()
	n.running = false
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	old := n.hub
	n.hub = push.NewHub[Reading](n.reg, "sensors")
	n.mu.Unlock()
	// Close subscriptions outside n.mu: CloseAll takes per-subscription
	// locks that publishers (which never hold n.mu) also take.
	old.CloseAll()
}

// SubscribeTopics returns a bounded subscription for explicit topics
// (push.TopicSensor, push.TopicCatchment, push.TopicAllSensors) — the
// portal's /ws/live endpoint builds on this. queue <= 0 selects the
// hub default. Slow subscribers coalesce: the oldest queued reading is
// dropped so the newest always arrives. Stop closes every subscription;
// after Stop, subscribe again for the restarted network's readings.
func (n *Network) SubscribeTopics(queue int, topics ...string) (*push.Subscription[Reading], error) {
	n.mu.RLock()
	hub := n.hub
	n.mu.RUnlock()
	return hub.Subscribe(queue, topics...)
}

// Latest returns the most recent reading of a sensor.
func (n *Network) Latest(id string) (Reading, error) {
	s, sh, err := n.shardOf(id)
	if err != nil {
		return Reading{}, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.Kind == Webcam {
		if sh.frames.n == 0 {
			return Reading{}, fmt.Errorf("%s: %w", id, ErrNoData)
		}
		last := sh.frames.at(sh.frames.n - 1)
		return Reading{SensorID: id, Kind: s.Kind, Time: last.Time, Value: float64(sh.frames.total)}, nil
	}
	h := sh.history
	if h.Len() == 0 {
		return Reading{}, fmt.Errorf("%s: %w", id, ErrNoData)
	}
	obs := h.At(h.Len() - 1)
	return Reading{SensorID: id, Kind: s.Kind, Time: obs.Time, Value: obs.Value}, nil
}

// Newest returns the most recent reading across the entire network. It
// is maintained on ingest (O(1), no per-sensor scan) and is the
// network's notion of "now" for data-relative queries. ErrNoData is
// returned before any sensor has sampled.
func (n *Network) Newest() (Reading, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.hasNewest {
		return Reading{}, fmt.Errorf("network has no readings: %w", ErrNoData)
	}
	return n.newest, nil
}

// ReadStamp identifies the state of one sensor's store for conditional
// requests: Seq increments on every ingest, LastIngest is the newest
// sample's time. A response derived from the store can answer 304 Not
// Modified for as long as the stamp is unchanged.
type ReadStamp struct {
	Seq        uint64
	LastIngest time.Time
}

// ReadStamp returns the sensor's current ingest stamp.
func (n *Network) ReadStamp(id string) (ReadStamp, error) {
	_, sh, err := n.shardOf(id)
	if err != nil {
		return ReadStamp{}, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return ReadStamp{Seq: sh.seq, LastIngest: sh.last}, nil
}

// HistoryView returns a sensor's readings within [from, to) as a
// zero-copy, read-only view. The store is append-only (out-of-order
// inserts copy), so the view stays valid — and race-free — while ingest
// continues; serialization layers iterate it without ever holding the
// shard lock.
func (n *Network) HistoryView(id string, from, to time.Time) ([]timeseries.Observation, error) {
	_, sh, err := n.shardOf(id)
	if err != nil {
		return nil, err
	}
	n.seriesQueries.Add(1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.history.WindowView(from, to), nil
}

// AggregateSeries partitions [from, from+buckets*step) into equal
// buckets and summarises each in one forward walk of the sensor's
// history, long buckets from its rollup index — the portal's ?agg=
// endpoint. One bucket of width to-from aggregates the window [from, to).
func (n *Network) AggregateSeries(id string, from time.Time, step time.Duration, buckets int) ([]timeseries.Aggregate, error) {
	_, sh, err := n.shardOf(id)
	if err != nil {
		return nil, err
	}
	n.aggQueries.Add(1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !sh.history.Indexed() {
		n.rollupFallbacks.Add(1)
	}
	return sh.history.AggregateSeries(from, step, buckets)
}

// FrameNearest returns the webcam frame closest in time to t — the
// primitive behind the paper's Fig. 5 widget pairing sensor readings with
// "the corresponding webcam image taken roughly at the same time". Only
// retained frames (see DefaultFrameRetention) are searched.
func (n *Network) FrameNearest(id string, t time.Time) (Frame, error) {
	s, sh, err := n.shardOf(id)
	if err != nil {
		return Frame{}, err
	}
	if s.Kind != Webcam {
		return Frame{}, fmt.Errorf("%s is %v, not a webcam: %w", id, s.Kind, ErrBadSensor)
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := &sh.frames
	if r.n == 0 {
		return Frame{}, fmt.Errorf("%s: %w", id, ErrNoData)
	}
	// Frames are pushed in sample order on a monotonic clock, so logical
	// ring order is time order even after wrap: binary-search the first
	// frame at or after t, then the nearest is that frame or its
	// predecessor.
	i := sort.Search(r.n, func(i int) bool {
		return !r.at(i).Time.Before(t)
	})
	switch i {
	case 0:
		return r.at(0), nil
	case r.n:
		return r.at(r.n - 1), nil
	}
	if absDur(t.Sub(r.at(i-1).Time)) <= absDur(r.at(i).Time.Sub(t)) {
		return r.at(i - 1), nil
	}
	return r.at(i), nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
