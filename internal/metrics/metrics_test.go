package metrics

import (
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(1)
	// 100 observations of 100 (bucket 7: [64,128)), one outlier at 10000.
	for i := 0; i < 100; i++ {
		h.Record(100)
	}
	h.Record(10000)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if s.Sum != 100*100+10000 {
		t.Fatalf("sum = %d, want 20000", s.Sum)
	}
	if s.Max != 10000 {
		t.Fatalf("max = %d, want 10000", s.Max)
	}
	p50 := s.Quantile(0.50)
	if p50 < 64 || p50 >= 128 {
		t.Fatalf("p50 = %v, want within bucket [64,128)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 64 {
		t.Fatalf("p99 = %v, want >= 64", p99)
	}
	if q := s.Quantile(1); q != 10000 {
		t.Fatalf("q(1) = %v, want the observed max", q)
	}
	// The quantile estimate never exceeds the observed max.
	if q := s.Quantile(0.9999); q > 10000 {
		t.Fatalf("q(0.9999) = %v, exceeds observed max", q)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram(0) // non-positive scale behaves as 1
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram: count=%d q=%v, want zeros", s.Count, s.Quantile(0.5))
	}
	h.Record(0)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Count != 1 {
		t.Fatalf("zero lands in bucket 0: buckets[0]=%d count=%d", s.Buckets[0], s.Count)
	}
}

func TestHistogramSnapshotSince(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 10; i++ {
		h.Record(100)
	}
	prev := h.Snapshot()
	for i := 0; i < 5; i++ {
		h.Record(3000)
	}
	cur := h.Snapshot()

	d := cur.Since(prev)
	if d.Count != 5 {
		t.Fatalf("interval count = %d, want 5", d.Count)
	}
	if d.Sum != 5*3000 {
		t.Fatalf("interval sum = %d, want 15000", d.Sum)
	}
	// Only the new observations' bucket carries interval counts.
	for i, b := range d.Buckets {
		if b != 0 && (i < 11 || i > 12) {
			t.Fatalf("bucket %d = %d, want interval counts only around 3000", i, b)
		}
	}
	// The interval p95 reflects the new observations, not the old ones.
	if q := d.Quantile(0.95); q < 1024 {
		t.Fatalf("interval p95 = %v, want >= 1024 (the 3000s)", q)
	}
	// Same snapshot twice → an empty delta, not underflow.
	if z := cur.Since(cur); z.Count != 0 || z.Sum != 0 {
		t.Fatalf("self delta = count %d sum %d, want zeros", z.Count, z.Sum)
	}
	// A stale "prev" from a newer snapshot clamps instead of wrapping.
	if z := prev.Since(cur); z.Count != 0 || z.Sum != 0 {
		t.Fatalf("inverted delta = count %d sum %d, want clamped zeros", z.Count, z.Sum)
	}
}

func TestHistogramDurationScale(t *testing.T) {
	h := NewHistogram(DurationScale)
	h.RecordDuration(2 * time.Second)
	s := h.Snapshot()
	if got := s.SumScaled(); got != 2 {
		t.Fatalf("sum scaled = %v s, want 2", got)
	}
	if got := s.MaxScaled(); got != 2 {
		t.Fatalf("max scaled = %v s, want 2", got)
	}
	h.RecordDuration(-time.Second) // clamps to 0
	if s := h.Snapshot(); s.Buckets[0] != 1 {
		t.Fatalf("negative duration should record as 0, buckets[0]=%d", s.Buckets[0])
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry(clock.NewSimulated(time.Unix(0, 0)))
	a := reg.Counter("evop_x_total", "help", L("k", "v"))
	b := reg.Counter("evop_x_total", "other help ignored", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := reg.Counter("evop_x_total", "", L("k", "w"))
	if a == c {
		t.Fatal("different label values must be distinct series")
	}
	// Label order at the call site must not split series.
	h1 := reg.Histogram("evop_h", "", 1, L("a", "1"), L("b", "2"))
	h2 := reg.Histogram("evop_h", "", 1, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order must not split series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision must panic")
		}
	}()
	reg.Gauge("evop_x_total", "", L("k", "v"))
}

func TestNilRegistryIsUsable(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter must work")
	}
	reg.Gauge("g", "").Set(3)
	reg.Histogram("h", "", 1).Record(1)
	reg.GaugeFunc("f", "", func() float64 { return 1 })
	if s := reg.Snapshot(); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics, want 0", len(s.Metrics))
	}
	if reg.Uptime() != 0 {
		t.Fatal("nil registry uptime must be 0")
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	reg := NewRegistry(clock.NewSimulated(time.Unix(0, 0)))
	reg.Counter("b_total", "")
	reg.Counter("a_total", "", L("z", "2"))
	reg.Counter("a_total", "", L("z", "1"))
	s := reg.Snapshot()
	var ids []string
	for _, m := range s.Metrics {
		ids = append(ids, m.SeriesID())
	}
	want := []string{`a_total{z="1"}`, `a_total{z="2"}`, `b_total`}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (all: %v)", i, ids[i], want[i], ids)
		}
	}
}

// TestConcurrentRecordSnapshotInvariants is the race/invariant test: N
// goroutines hammer a counter and a histogram while another goroutine
// snapshots continuously. Every snapshot must see monotonically
// non-decreasing counts, and every histogram snapshot must satisfy
// sum(buckets) == count (count is derived from the buckets, so the
// invariant holds mid-flight, not only at rest).
func TestConcurrentRecordSnapshotInvariants(t *testing.T) {
	reg := NewRegistry(clock.NewSimulated(time.Unix(0, 0)))
	c := reg.Counter("evop_hammer_total", "")
	h := reg.Histogram("evop_hammer_seconds", "", DurationScale)

	const (
		writers = 8
		perG    = 5000
	)
	var writersWG, snapWG sync.WaitGroup
	stop := make(chan struct{})
	snapErr := make(chan string, 1)
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var lastCount, lastHist uint64
		for {
			hs := h.Snapshot()
			var sum uint64
			for _, b := range hs.Buckets {
				sum += b
			}
			if sum != hs.Count {
				select {
				case snapErr <- "histogram sum(buckets) != count":
				default:
				}
				return
			}
			if hs.Count < lastHist {
				select {
				case snapErr <- "histogram count went backwards":
				default:
				}
				return
			}
			lastHist = hs.Count
			cv := c.Value()
			if cv < lastCount {
				select {
				case snapErr <- "counter went backwards":
				default:
				}
				return
			}
			lastCount = cv
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(seed uint64) {
			defer writersWG.Done()
			v := seed
			for i := 0; i < perG; i++ {
				c.Inc()
				// splitmix-ish value spread across buckets
				v ^= v << 13
				v ^= v >> 7
				v ^= v << 17
				h.Record(v % (1 << 20))
			}
		}(uint64(g + 1))
	}
	writersWG.Wait()
	close(stop)
	snapWG.Wait()
	select {
	case msg := <-snapErr:
		t.Fatal(msg)
	default:
	}
	if got := c.Value(); got != writers*perG {
		t.Fatalf("counter = %d, want %d", got, writers*perG)
	}
	if got := h.Snapshot().Count; got != writers*perG {
		t.Fatalf("histogram count = %d, want %d", got, writers*perG)
	}
	hs := h.Snapshot()
	var sum uint64
	for _, b := range hs.Buckets {
		sum += b
	}
	if sum != hs.Count {
		t.Fatalf("at rest: sum(buckets)=%d != count=%d", sum, hs.Count)
	}
}
