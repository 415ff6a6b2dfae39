package sensor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/timeseries"
)

// TestHistoryContentionDoesNotStarveIngest hammers the read path from
// many goroutines while sampling runs on real goroutine interleavings.
// The sharded design's contract: readers never block ingest on other
// sensors, every query observes a consistent time-ordered window, and
// the run is race-clean under -race.
func TestHistoryContentionDoesNotStarveIngest(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	ids := []string{"level-a", "level-b", "level-c", "level-d"}
	for _, id := range ids {
		if err := n.Add(levelSensor(id)); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	if err := n.Add(camSensor("cam")); err != nil {
		t.Fatalf("Add(cam): %v", err)
	}
	n.Start()
	defer n.Stop()
	clk.Advance(24 * time.Hour) // seed a day of data before the storm

	var (
		stop    atomic.Bool
		queries atomic.Uint64
		wg      sync.WaitGroup
	)
	// Writer: keep the simulated clock marching so sampling fires
	// concurrently with every reader below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			clk.Advance(15 * time.Minute)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ids[g%len(ids)]
			for !stop.Load() {
				switch g % 4 {
				case 0:
					if _, err := n.HistoryView(id, epoch, epoch.Add(1000*time.Hour)); err != nil {
						t.Errorf("HistoryView(%s): %v", id, err)
						return
					}
				case 1:
					view, err := n.HistoryView(id, epoch, epoch.Add(1000*time.Hour))
					if err != nil {
						t.Errorf("HistoryView(%s): %v", id, err)
						return
					}
					// The view must stay time-ordered even as ingest
					// continues after the shard lock is released.
					for i := 1; i < len(view); i++ {
						if view[i].Time.Before(view[i-1].Time) {
							t.Errorf("HistoryView(%s): out of order at %d", id, i)
							return
						}
					}
				case 2:
					if _, err := n.Latest(id); err != nil {
						t.Errorf("Latest(%s): %v", id, err)
						return
					}
					if _, err := n.FrameNearest("cam", clk.Now()); err != nil {
						t.Errorf("FrameNearest: %v", err)
						return
					}
				case 3:
					if _, err := n.AggregateWindow(id, epoch, epoch.Add(1000*time.Hour)); err != nil {
						t.Errorf("AggregateWindow(%s): %v", id, err)
						return
					}
				}
				queries.Add(1)
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Ingest must not have been starved by the reader storm: the writer
	// goroutine advanced the clock far past the seeded day, so every
	// level sensor's history has to have grown well beyond the seed's 96
	// readings.
	for _, id := range ids {
		hist, err := n.HistoryView(id, epoch, clk.Now().Add(time.Hour))
		if err != nil {
			t.Fatalf("HistoryView(%s): %v", id, err)
		}
		if len(hist) <= 96 {
			t.Fatalf("%s ingested only %d readings during the reader storm", id, len(hist))
		}
	}
	if queries.Load() == 0 {
		t.Fatal("no reader queries completed")
	}
	if series, agg := n.seriesQueries.Value(), n.aggQueries.Value(); series == 0 || agg == 0 {
		t.Fatalf("series/aggregate queries = %d/%d, want nonzero", series, agg)
	}
}

// TestSensorAggregateMatchesScan checks the network-level aggregate
// queries agree with a naive scan over HistoryView.
func TestSensorAggregateMatchesScan(t *testing.T) {
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
	clk.Advance(40 * 24 * time.Hour)

	from, to := epoch.Add(3*24*time.Hour), epoch.Add(31*24*time.Hour)
	agg, err := n.AggregateWindow("lvl", from, to)
	if err != nil {
		t.Fatalf("AggregateWindow: %v", err)
	}
	hist, err := n.HistoryView("lvl", from, to)
	if err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	var want timeseries.Aggregate
	for _, o := range hist {
		want.Min, want.Max = o.Value, o.Value
		break
	}
	for _, o := range hist {
		if o.Value < want.Min {
			want.Min = o.Value
		}
		if o.Value > want.Max {
			want.Max = o.Value
		}
		want.Sum += o.Value
		want.Count++
	}
	if agg.Count != want.Count || agg.Min != want.Min || agg.Max != want.Max {
		t.Fatalf("AggregateWindow = %+v, scan = %+v", agg, want)
	}

	series, err := n.AggregateSeries("lvl", from, 6*time.Hour, 8)
	if err != nil {
		t.Fatalf("AggregateSeries: %v", err)
	}
	if len(series) != 8 {
		t.Fatalf("AggregateSeries buckets = %d, want 8", len(series))
	}
	var total int64
	for _, a := range series {
		total += a.Count
	}
	// 8 six-hour buckets of a 15-minute sensor: 24 readings per bucket.
	if total != 8*24 {
		t.Fatalf("AggregateSeries total count = %d, want %d", total, 8*24)
	}

	if _, err := n.AggregateWindow("nope", from, to); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AggregateWindow(unknown) err = %v, want ErrNotFound", err)
	}
}

// TestReadStamp checks the conditional-request stamp moves only on
// ingest.
func TestReadStamp(t *testing.T) {
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

	st0, err := n.ReadStamp("lvl")
	if err != nil {
		t.Fatalf("ReadStamp: %v", err)
	}
	if st0.Seq != 0 {
		t.Fatalf("fresh Seq = %d, want 0", st0.Seq)
	}
	clk.Advance(time.Hour) // 4 samples of a 15-minute sensor
	st1, _ := n.ReadStamp("lvl")
	if st1.Seq != 4 {
		t.Fatalf("Seq after 1h = %d, want 4", st1.Seq)
	}
	if !st1.LastIngest.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("LastIngest = %v, want %v", st1.LastIngest, epoch.Add(time.Hour))
	}
	// Reads do not move the stamp.
	if _, err := n.HistoryView("lvl", epoch, clk.Now()); err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	st2, _ := n.ReadStamp("lvl")
	if st2 != st1 {
		t.Fatalf("stamp moved on read: %+v -> %+v", st1, st2)
	}
	if _, err := n.ReadStamp("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadStamp(unknown) err = %v, want ErrNotFound", err)
	}
}

// TestFrameRetentionRing checks the webcam ring evicts oldest-first,
// FrameNearest stays correct across wrap, and the running frame count
// (Latest's Value) keeps counting past evictions.
func TestFrameRetentionRing(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := n.SetFrameRetention(48); err != nil {
		t.Fatalf("SetFrameRetention: %v", err)
	}
	if err := n.Add(camSensor("cam")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	n.Start()
	defer n.Stop()

	clk.Advance(100 * time.Hour) // 100 hourly frames into a 48-slot ring

	latest, err := n.Latest("cam")
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if latest.Value != 100 {
		t.Fatalf("Latest frame count = %v, want 100 (evictions must not reset it)", latest.Value)
	}

	// The oldest retained frame is #53 (hour 53); asking for anything
	// earlier clamps to it.
	oldest := epoch.Add(53 * time.Hour)
	f, err := n.FrameNearest("cam", epoch.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("FrameNearest(evicted): %v", err)
	}
	if !f.Time.Equal(oldest) {
		t.Fatalf("FrameNearest(evicted) = %v, want oldest retained %v", f.Time, oldest)
	}
	// Mid-ring lookups land on the true nearest hour even after wrap.
	for _, hour := range []int{53, 60, 77, 99, 100} {
		at := epoch.Add(time.Duration(hour)*time.Hour + 11*time.Minute)
		f, err := n.FrameNearest("cam", at)
		if err != nil {
			t.Fatalf("FrameNearest(h%d): %v", hour, err)
		}
		if !f.Time.Equal(epoch.Add(time.Duration(hour) * time.Hour)) {
			t.Fatalf("FrameNearest(h%d) = %v, want hour %d", hour, f.Time, hour)
		}
	}
	// After the end, clamp to the newest frame.
	f, err = n.FrameNearest("cam", epoch.Add(5000*time.Hour))
	if err != nil {
		t.Fatalf("FrameNearest(future): %v", err)
	}
	if !f.Time.Equal(epoch.Add(100 * time.Hour)) {
		t.Fatalf("FrameNearest(future) = %v, want newest", f.Time)
	}

	// Retention knobs are sealed once running, and bad values rejected.
	if err := n.SetFrameRetention(10); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("SetFrameRetention while running = %v, want ErrBadSensor", err)
	}
	n2, _ := NewNetwork(clk, nil)
	if err := n2.SetFrameRetention(0); !errors.Is(err, ErrBadSensor) {
		t.Fatalf("SetFrameRetention(0) = %v, want ErrBadSensor", err)
	}
}

// TestHistoryViewIsStableAcrossIngest pins the zero-copy contract: a
// view taken before more samples arrive still holds exactly its window.
func TestHistoryViewIsStableAcrossIngest(t *testing.T) {
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
	clk.Advance(6 * time.Hour)

	view, err := n.HistoryView("lvl", epoch, epoch.Add(3*time.Hour))
	if err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	want := make([]timeseries.Observation, len(view))
	copy(want, view)

	clk.Advance(24 * time.Hour) // heavy ingest after the view was taken

	for i := range view {
		if view[i] != want[i] {
			t.Fatalf("view[%d] changed under ingest: %+v -> %+v", i, want[i], view[i])
		}
	}
	// First sample fires one interval after start: 15m..2h45m = 11.
	if len(view) != 11 {
		t.Fatalf("view length = %d, want 11", len(view))
	}
}
