package sensor

import (
	"errors"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/metrics"
	"evop/internal/push"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func levelSensor(id string) Sensor {
	return Sensor{
		ID: id, Kind: RiverLevel,
		Location:    geo.Point{Lat: 54.6, Lon: -2.6},
		CatchmentID: "morland",
		Interval:    15 * time.Minute,
		Driver:      func(t time.Time) float64 { return 0.5 + float64(t.Minute())/100 },
	}
}

func camSensor(id string) Sensor {
	return Sensor{
		ID: id, Kind: Webcam,
		Location:    geo.Point{Lat: 54.6, Lon: -2.6},
		CatchmentID: "morland",
		Interval:    time.Hour,
	}
}

func TestSensorValidate(t *testing.T) {
	if err := levelSensor("ok").Validate(); err != nil {
		t.Fatalf("valid sensor rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Sensor)
	}{
		{"empty id", func(s *Sensor) { s.ID = "" }},
		{"bad kind", func(s *Sensor) { s.Kind = 0 }},
		{"zero interval", func(s *Sensor) { s.Interval = 0 }},
		{"no driver", func(s *Sensor) { s.Driver = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := levelSensor("x")
			tc.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSensor) {
				t.Fatalf("Validate = %v, want ErrBadSensor", err)
			}
		})
	}
	// A bad location propagates geo's coordinate error.
	bad := levelSensor("x")
	bad.Location.Lat = 99
	if err := bad.Validate(); !errors.Is(err, geo.ErrBadCoordinate) {
		t.Fatalf("bad location err = %v, want ErrBadCoordinate", err)
	}
	// Webcams do not need a driver.
	if err := camSensor("cam").Validate(); err != nil {
		t.Fatalf("webcam rejected: %v", err)
	}
}

func TestNetworkSamplingAndHistory(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := n.Add(levelSensor("lvl")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	n.Start()
	defer n.Stop()

	clk.Advance(time.Hour) // 4 samples at 15-min interval
	hist, err := n.HistoryView("lvl", epoch, epoch.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	if len(hist) != 4 {
		t.Fatalf("history = %d readings, want 4", len(hist))
	}
	latest, err := n.Latest("lvl")
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if !latest.Time.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("latest at %v", latest.Time)
	}
	if latest.Kind != RiverLevel {
		t.Fatalf("latest kind = %v", latest.Kind)
	}
}

func TestNewestTracksIngestAcrossSensors(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if _, err := n.Newest(); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty Newest err = %v, want ErrNoData", err)
	}
	fast := levelSensor("fast")
	slow := levelSensor("slow")
	slow.Interval = time.Hour
	for _, s := range []Sensor{fast, slow, camSensor("cam")} {
		if err := n.Add(s); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	n.Start()
	defer n.Stop()

	clk.Advance(90 * time.Minute)
	newest, err := n.Newest()
	if err != nil {
		t.Fatalf("Newest: %v", err)
	}
	if !newest.Time.Equal(epoch.Add(90 * time.Minute)) {
		t.Fatalf("newest at %v, want %v", newest.Time, epoch.Add(90*time.Minute))
	}
	// Newest must agree with the O(sensors) scan it replaces.
	var scanned Reading
	for _, s := range n.Sensors() {
		if r, err := n.Latest(s.ID); err == nil && r.Time.After(scanned.Time) {
			scanned = r
		}
	}
	if !newest.Time.Equal(scanned.Time) {
		t.Fatalf("Newest %v disagrees with per-sensor scan %v", newest.Time, scanned.Time)
	}
}

func TestNetworkValidationAndErrors(t *testing.T) {
	if _, err := NewNetwork(nil, nil); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("nil clock err = %v", err)
	}
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	if err := n.Add(levelSensor("a")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := n.Add(levelSensor("a")); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("duplicate err = %v", err)
	}
	n.Start()
	if err := n.Add(levelSensor("late")); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("add after start err = %v", err)
	}
	n.Stop()
	if _, err := n.Latest("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest unknown err = %v", err)
	}
	if _, err := n.HistoryView("ghost", epoch, epoch); !errors.Is(err, ErrNotFound) {
		t.Fatalf("HistoryView unknown err = %v", err)
	}
	if _, err := n.Latest("a"); !errors.Is(err, ErrNoData) {
		t.Fatalf("Latest no data err = %v", err)
	}
	if _, err := n.Get("a"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := n.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown err = %v", err)
	}
}

func TestStopHaltsSampling(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(levelSensor("lvl"))
	n.Start()
	clk.Advance(30 * time.Minute)
	n.Stop()
	before, _ := n.HistoryView("lvl", epoch, epoch.Add(24*time.Hour))
	clk.Advance(2 * time.Hour)
	after, _ := n.HistoryView("lvl", epoch, epoch.Add(24*time.Hour))
	if len(after) != len(before) {
		t.Fatalf("samples kept arriving after Stop: %d -> %d", len(before), len(after))
	}
	if clk.PendingTimers() != 0 {
		t.Fatalf("pending timers after Stop = %d", clk.PendingTimers())
	}
}

// subscribeAll subscribes to the all-sensors firehose with a 64-reading
// queue, about an hour of the standard LEFT deployment's readings.
func subscribeAll(t *testing.T, n *Network) *push.Subscription[Reading] {
	t.Helper()
	sub, err := n.SubscribeTopics(64, push.TopicAllSensors)
	if err != nil {
		t.Fatalf("SubscribeTopics: %v", err)
	}
	return sub
}

func TestSubscribeLiveFeed(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(levelSensor("lvl"))
	sub := subscribeAll(t, n)
	defer sub.Cancel()
	n.Start()
	defer n.Stop()
	clk.Advance(15 * time.Minute)
	select {
	case r := <-sub.C():
		if r.SensorID != "lvl" || !r.Time.Equal(epoch.Add(15*time.Minute)) {
			t.Fatalf("reading = %+v", r)
		}
	default:
		t.Fatal("no live reading delivered")
	}
}

// TestRearmKeepsOneTimerPerSensor is the regression test for the timer
// leak: every re-arm used to append a stop func, so a month of sampling
// retained one closure per sample instead of one per sensor.
func TestRearmKeepsOneTimerPerSensor(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	for _, id := range []string{"lvl-1", "lvl-2", "lvl-3"} {
		if err := n.Add(levelSensor(id)); err != nil {
			t.Fatalf("Add %s: %v", id, err)
		}
	}
	n.Start()
	defer n.Stop()
	clk.Advance(30 * 24 * time.Hour)
	n.mu.RLock()
	retained := len(n.stops)
	n.mu.RUnlock()
	if retained != 3 || clk.PendingTimers() != 3 {
		t.Fatalf("retained stops = %d, pending timers = %d, want 3 each", retained, clk.PendingTimers())
	}
}

func TestSubscribeSlowConsumerDrops(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	reg := metrics.NewRegistry(clk)
	n, _ := NewNetwork(clk, reg)
	s := levelSensor("lvl")
	s.Interval = time.Minute
	n.Add(s)
	sub := subscribeAll(t, n) // never drained
	defer sub.Cancel()
	n.Start()
	defer n.Stop()
	clk.Advance(100 * time.Minute) // 100 readings into a 64-slot buffer
	var dropped float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "evop_push_coalesced_total" {
			dropped += m.Value
		}
	}
	if dropped == 0 {
		t.Fatal("expected drops with stalled subscriber")
	}
	// Coalescing keeps the newest reading, not the oldest: the queue must
	// end with the final sample even though earlier ones were evicted.
	var last Reading
	for drained := false; !drained; {
		select {
		case r := <-sub.C():
			last = r
		default:
			drained = true
		}
	}
	if !last.Time.Equal(epoch.Add(100 * time.Minute)) {
		t.Fatalf("newest queued reading at %v, want %v", last.Time, epoch.Add(100*time.Minute))
	}
}

// TestSubscribeStopCloses is the leak regression for the old ad-hoc
// subscriber slice: Stop must close every subscriber channel (no reader
// blocks forever on a dead network), unsubscribe must deregister, and
// stopping must leave no pending timers behind.
func TestSubscribeStopCloses(t *testing.T) {
	const subscribers = `evop_push_subscribers{hub="sensors"}`
	clk := clock.NewSimulated(epoch)
	reg := metrics.NewRegistry(clk)
	n, _ := NewNetwork(clk, reg)
	n.Add(levelSensor("lvl"))
	kept := subscribeAll(t, n)
	gone := subscribeAll(t, n)
	defer kept.Cancel()
	gone.Cancel()
	if _, ok := <-gone.C(); ok {
		t.Fatal("unsubscribed channel not closed")
	}
	if got := seriesValue(t, reg, subscribers); got != 1 {
		t.Fatalf("subscribers after unsubscribe = %v, want 1", got)
	}
	n.Start()
	clk.Advance(30 * time.Minute)
	n.Stop()
	// Drain the two buffered readings, then the channel must be closed.
	for i := 0; i < 2; i++ {
		if _, ok := <-kept.C(); !ok {
			t.Fatalf("channel closed after %d readings, want 2 buffered", i)
		}
	}
	if _, ok := <-kept.C(); ok {
		t.Fatal("subscriber channel not closed by Stop")
	}
	// The gauge follows the fresh hub Stop installs.
	if got := seriesValue(t, reg, subscribers); got != 0 {
		t.Fatalf("subscribers after Stop = %v, want 0", got)
	}
	if clk.PendingTimers() != 0 {
		t.Fatalf("pending timers after Stop = %d", clk.PendingTimers())
	}
	// Double-cancel after Stop must be safe.
	kept.Cancel()
	// The network restarts cleanly: new subscriptions work and readings
	// flow again.
	sub2 := subscribeAll(t, n)
	defer sub2.Cancel()
	n.Start()
	defer n.Stop()
	clk.Advance(15 * time.Minute)
	if _, ok := <-sub2.C(); !ok {
		t.Fatal("no reading after restart")
	}
}

// TestSubscribeTopics pins the topic routing the portal's /ws/live
// endpoint relies on: per-sensor and per-catchment topics see only
// their own readings, delivered once even when topics overlap.
func TestSubscribeTopics(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	a := levelSensor("lvl-a")
	b := levelSensor("lvl-b")
	b.CatchmentID = "eden"
	n.Add(a)
	n.Add(b)
	sub, err := n.SubscribeTopics(16, "sensor/lvl-a", "catchment/morland")
	if err != nil {
		t.Fatalf("SubscribeTopics: %v", err)
	}
	defer sub.Cancel()
	n.Start()
	defer n.Stop()
	clk.Advance(15 * time.Minute) // one reading per sensor
	var got []Reading
	for drained := false; !drained; {
		select {
		case r := <-sub.C():
			got = append(got, r)
		default:
			drained = true
		}
	}
	if len(got) != 1 || got[0].SensorID != "lvl-a" {
		t.Fatalf("topic subscriber saw %+v, want exactly lvl-a's reading once", got)
	}
}

func TestWebcamFrames(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(camSensor("cam"))
	n.Start()
	defer n.Stop()
	clk.Advance(5 * time.Hour)

	f, err := n.FrameNearest("cam", epoch.Add(2*time.Hour+25*time.Minute))
	if err != nil {
		t.Fatalf("FrameNearest: %v", err)
	}
	if !f.Time.Equal(epoch.Add(2 * time.Hour)) {
		t.Fatalf("nearest frame at %v, want 2h", f.Time)
	}
	if len(f.Content) == 0 {
		t.Fatal("empty frame content")
	}
	// Frames are distinct over time.
	f2, _ := n.FrameNearest("cam", epoch.Add(4*time.Hour))
	if string(f.Content) == string(f2.Content) {
		t.Fatal("frames at different times identical")
	}
	latest, err := n.Latest("cam")
	if err != nil || latest.Value != 5 {
		t.Fatalf("Latest cam = %+v, %v (want 5 frames)", latest, err)
	}
	if _, err := n.FrameNearest("lvl-missing", epoch); !errors.Is(err, ErrNotFound) {
		t.Fatalf("FrameNearest unknown err = %v", err)
	}
}

// TestFrameNearestEdges pins the binary search against the boundaries
// the old linear scan handled implicitly: before the first frame, after
// the last, an exact hit, and an equidistant tie (earlier frame wins,
// as the linear scan's strict < did).
func TestFrameNearestEdges(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(camSensor("cam"))
	n.Start()
	defer n.Stop()
	clk.Advance(6 * time.Hour) // frames at 1h..6h

	tests := []struct {
		name string
		at   time.Time
		want time.Duration // frame offset from epoch
	}{
		{"before first", epoch, time.Hour},
		{"after last", epoch.Add(24 * time.Hour), 6 * time.Hour},
		{"exact hit", epoch.Add(3 * time.Hour), 3 * time.Hour},
		{"just before", epoch.Add(3*time.Hour - time.Minute), 3 * time.Hour},
		{"just after", epoch.Add(3*time.Hour + time.Minute), 3 * time.Hour},
		{"tie goes earlier", epoch.Add(3*time.Hour + 30*time.Minute), 3 * time.Hour},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f, err := n.FrameNearest("cam", tc.at)
			if err != nil {
				t.Fatalf("FrameNearest: %v", err)
			}
			if !f.Time.Equal(epoch.Add(tc.want)) {
				t.Fatalf("nearest at %v, want %v", f.Time, epoch.Add(tc.want))
			}
		})
	}
}

func TestFrameNearestKindGuard(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(levelSensor("lvl"))
	n.Start()
	defer n.Stop()
	clk.Advance(time.Hour)
	if _, err := n.FrameNearest("lvl", epoch); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("FrameNearest on level gauge err = %v", err)
	}
}

func TestLEFTDeploymentAndFusion(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	sensors, err := LEFTDeployment(clk, "morland", geo.Point{Lat: 54.596, Lon: -2.643}, 101, epoch)
	if err != nil {
		t.Fatalf("LEFTDeployment: %v", err)
	}
	if len(sensors) != 5 {
		t.Fatalf("deployment = %d sensors, want 5", len(sensors))
	}
	kinds := make(map[Kind]bool)
	for _, s := range sensors {
		if err := s.Validate(); err != nil {
			t.Fatalf("sensor %s invalid: %v", s.ID, err)
		}
		if err := n.Add(s); err != nil {
			t.Fatalf("Add %s: %v", s.ID, err)
		}
		kinds[s.Kind] = true
	}
	if len(kinds) != 5 {
		t.Fatalf("kinds = %v, want all five", kinds)
	}
	n.Start()
	defer n.Stop()
	clk.Advance(12 * time.Hour)

	at := epoch.Add(6*time.Hour + 10*time.Minute)
	fused, err := n.Fuse("morland-temp-1", "morland-turb-1", "morland-cam-1", at)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	// Probes sample every 30 min, cams hourly: skew bounded by 30 min.
	if fused.MaxSkew > 30*time.Minute {
		t.Fatalf("fusion skew %v > 30m", fused.MaxSkew)
	}
	if fused.Temperature == 0 && fused.Turbidity == 0 {
		t.Fatal("suspicious all-zero fusion")
	}
	if len(fused.Frame.Content) == 0 {
		t.Fatal("fusion missing webcam frame")
	}
}

func TestFuseErrors(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, _ := NewNetwork(clk, nil)
	n.Add(levelSensor("lvl"))
	n.Add(camSensor("cam"))
	n.Start()
	defer n.Stop()
	clk.Advance(time.Hour)
	if _, err := n.Fuse("ghost", "lvl", "cam", epoch); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown temp err = %v", err)
	}
	if _, err := n.Fuse("lvl", "lvl", "cam", epoch); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("wrong kind err = %v", err)
	}
}

func TestKindStringsAndUnits(t *testing.T) {
	for k, want := range map[Kind]string{
		RiverLevel: "riverLevel", RainGauge: "rainGauge",
		WaterTemperature: "waterTemperature", Turbidity: "turbidity",
		Webcam: "webcam", Kind(9): "Kind(9)",
	} {
		if k.String() != want {
			t.Errorf("String = %q want %q", k.String(), want)
		}
	}
	if RiverLevel.Unit() != "m" || RainGauge.Unit() != "mm" || Kind(9).Unit() != "" {
		t.Fatal("units wrong")
	}
}

// seriesValue reads one series from reg by its series ID.
func seriesValue(t *testing.T, reg *metrics.Registry, id string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.SeriesID() == id {
			return m.Value
		}
	}
	t.Fatalf("series %s not registered", id)
	return 0
}
