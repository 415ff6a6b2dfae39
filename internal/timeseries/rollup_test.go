package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// AggregateScan is the reference aggregation: a linear scan of the raw
// observations in [from, to). It is the O(window) baseline the rollup
// index is benchmarked and differentially fuzzed against.
func (ir *Irregular) AggregateScan(from, to time.Time) Aggregate {
	var a Aggregate
	a.addAll(ir.WindowView(from, to))
	return a
}

// AggregateWindow aggregates the observations in [from, to): the
// one-bucket case of AggregateSeries. Min, max and count always match
// AggregateScan exactly; Sum matches bit for bit when the window holds
// at most rawBudget observations or no index is enabled, and up to
// floating-point association order otherwise.
func (ir *Irregular) AggregateWindow(from, to time.Time) Aggregate {
	w := ir.walkFrom(from)
	return w.next(to)
}

// approxEqual compares sums that may differ in floating-point
// association order between the rollup merge and the linear scan.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func sameAggregate(t *testing.T, got, want Aggregate, ctx string) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("%s: Count = %d, want %d", ctx, got.Count, want.Count)
	}
	if got.Count == 0 {
		return
	}
	if got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("%s: Min/Max = %v/%v, want %v/%v", ctx, got.Min, got.Max, want.Min, want.Max)
	}
	if !approxEqual(got.Sum, want.Sum) {
		t.Fatalf("%s: Sum = %v, want %v", ctx, got.Sum, want.Sum)
	}
}

func TestEnableRollupsValidatesTiers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiers []time.Duration
	}{
		{"zero span", []time.Duration{0}},
		{"descending", []time.Duration{time.Hour, time.Minute}},
		{"not a multiple", []time.Duration{time.Minute, 90 * time.Second}},
	} {
		ir := NewIrregular(nil)
		if err := ir.EnableRollups(tc.tiers...); err == nil {
			t.Fatalf("%s: tiers %v accepted", tc.name, tc.tiers)
		}
	}
	ir := NewIrregular(nil)
	if err := ir.EnableRollups(); err != nil {
		t.Fatalf("default tiers rejected: %v", err)
	}
	if !ir.Indexed() {
		t.Fatal("Indexed() = false after EnableRollups")
	}
}

// TestRollupMatchesScan is the verbatim-equivalence property test: for
// random in-order ingest and random query windows, the indexed aggregate
// must match the naive O(window) scan (exactly for min/max/count, up to
// float association for sum).
func TestRollupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ir := NewIrregular(nil)
	if err := ir.EnableRollups(time.Minute, 15*time.Minute, 6*time.Hour); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	// Irregular cadence: gaps between 30s and ~4h, values signed.
	at := t0
	for i := 0; i < 5000; i++ {
		at = at.Add(30*time.Second + time.Duration(rng.Intn(240))*time.Minute/2)
		ir.Add(Observation{Time: at, Value: rng.NormFloat64() * 50})
	}
	extent := at.Sub(t0)
	for i := 0; i < 300; i++ {
		from := t0.Add(time.Duration(rng.Int63n(int64(extent))) - time.Hour)
		to := from.Add(time.Duration(rng.Int63n(int64(extent / 2))))
		sameAggregate(t, ir.AggregateWindow(from, to), ir.AggregateScan(from, to),
			from.String()+".."+to.String())
	}
	// Degenerate windows.
	sameAggregate(t, ir.AggregateWindow(at, at), Aggregate{}, "empty window")
	sameAggregate(t, ir.AggregateWindow(at, t0), Aggregate{}, "inverted window")
	// Whole-extent window, endpoints inclusive-of-first / exclusive-of-last.
	sameAggregate(t, ir.AggregateWindow(t0, at.Add(time.Nanosecond)),
		ir.AggregateScan(t0, at.Add(time.Nanosecond)), "full extent")
}

// TestRollupTracksOutOfOrderAdds checks the index absorbs late-arriving
// observations (which copy-on-write into the raw store) and stays
// equivalent to the scan.
func TestRollupTracksOutOfOrderAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ir := NewIrregular(nil)
	if err := ir.EnableRollups(time.Minute, 15*time.Minute, 6*time.Hour); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	for i := 0; i < 2000; i++ {
		off := time.Duration(rng.Intn(14*24*60)) * time.Minute // shuffled across two weeks
		ir.Add(Observation{Time: t0.Add(off), Value: float64(i) - 1000})
	}
	for i := 0; i < 100; i++ {
		from := t0.Add(time.Duration(rng.Intn(14*24*60)) * time.Minute)
		to := from.Add(time.Duration(rng.Intn(7*24*60)) * time.Minute)
		sameAggregate(t, ir.AggregateWindow(from, to), ir.AggregateScan(from, to), "out-of-order")
	}
}

// TestRollupPreexistingObservations checks EnableRollups indexes data
// already held, and that enabling twice rebuilds cleanly.
func TestRollupPreexistingObservations(t *testing.T) {
	obs := make([]Observation, 0, 500)
	for i := 0; i < 500; i++ {
		obs = append(obs, Observation{Time: t0.Add(time.Duration(i) * 13 * time.Minute), Value: float64(i % 17)})
	}
	ir := NewIrregular(obs)
	if err := ir.EnableRollups(); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	from, to := t0.Add(3*time.Hour), t0.Add(90*time.Hour)
	sameAggregate(t, ir.AggregateWindow(from, to), ir.AggregateScan(from, to), "preexisting")
	if err := ir.EnableRollups(time.Hour, 24*time.Hour); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
	sameAggregate(t, ir.AggregateWindow(from, to), ir.AggregateScan(from, to), "rebuilt")
}

func TestAggregateSeriesMatchesPerBucketScan(t *testing.T) {
	ir := NewIrregular(nil)
	if err := ir.EnableRollups(); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		ir.Add(Observation{Time: t0.Add(time.Duration(i)*11*time.Minute + time.Duration(rng.Intn(60))*time.Second), Value: rng.Float64() * 10})
	}
	step := 47 * time.Minute // deliberately unaligned with every tier
	got, err := ir.AggregateSeries(t0, step, 100)
	if err != nil {
		t.Fatalf("AggregateSeries: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("buckets = %d, want 100", len(got))
	}
	for i, a := range got {
		lo := t0.Add(time.Duration(i) * step)
		sameAggregate(t, a, ir.AggregateScan(lo, lo.Add(step)), "bucket")
	}
	if _, err := ir.AggregateSeries(t0, 0, 1); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := ir.AggregateSeries(t0, step, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestAggregateMean(t *testing.T) {
	var a Aggregate
	if a.Mean() != 0 {
		t.Fatalf("empty Mean = %v", a.Mean())
	}
	a.add(2)
	a.add(4)
	if a.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", a.Mean())
	}
}

// TestAggregateSeriesRawBucketsBitIdentical pins the walk's exactness
// contract: a bucket holding at most rawBudget observations is summed in
// store order from an empty aggregate, as AggregateScan sums it, so its
// Sum is bit-identical (not merely close) to the scan's — with or
// without a rollup index.
func TestAggregateSeriesRawBucketsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	obs := make([]Observation, 0, 4000)
	at := t0
	for i := 0; i < 4000; i++ {
		at = at.Add(time.Duration(1+rng.Intn(600)) * time.Second)
		obs = append(obs, Observation{Time: at, Value: rng.NormFloat64() * 1e3})
	}
	indexed := NewIrregular(obs)
	if err := indexed.EnableRollups(15*time.Minute, 6*time.Hour, 120*time.Hour); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	for _, ir := range []*Irregular{indexed, NewIrregular(obs)} {
		from := t0.Add(7*time.Minute + 13*time.Second)
		// 3h buckets at a ~5 min mean cadence hold ~36 readings; the
		// widest reaches the budget, none passes it.
		step := 3 * time.Hour
		got, err := ir.AggregateSeries(from, step, 100)
		if err != nil {
			t.Fatalf("AggregateSeries: %v", err)
		}
		var widest int64
		for i, a := range got {
			lo := from.Add(time.Duration(i) * step)
			want := ir.AggregateScan(lo, lo.Add(step))
			if a != want {
				t.Fatalf("indexed=%v bucket %d: %+v, scan %+v", ir.Indexed(), i, a, want)
			}
			widest = max(widest, a.Count)
		}
		if widest > rawBudget || widest < rawBudget/2 {
			t.Fatalf("widest bucket holds %d readings; the test wants buckets near, not past, the %d budget", widest, rawBudget)
		}
		// A window of exactly rawBudget readings is still a raw bucket.
		lo, hi := obs[100].Time, obs[100+rawBudget].Time
		if a, want := ir.AggregateWindow(lo, hi), ir.AggregateScan(lo, hi); a != want || a.Count != rawBudget {
			t.Fatalf("indexed=%v budget-sized window: %+v, scan %+v", ir.Indexed(), a, want)
		}
	}
}

// TestAggregateDenseBucketWithoutInterior covers a bucket past the raw
// budget that holds no whole finest-tier bucket: a burst of readings
// inside one quarter hour is answered by scanning, bit-identically.
func TestAggregateDenseBucketWithoutInterior(t *testing.T) {
	ir := NewIrregular(nil)
	if err := ir.EnableRollups(15*time.Minute, 6*time.Hour, 120*time.Hour); err != nil {
		t.Fatalf("EnableRollups: %v", err)
	}
	for i := 0; i < 3*rawBudget; i++ {
		ir.Add(Observation{Time: t0.Add(time.Minute + time.Duration(i)*time.Second), Value: 0.1 * float64(i%7)})
	}
	from, to := t0, t0.Add(time.Hour)
	if a, want := ir.AggregateWindow(from, to), ir.AggregateScan(from, to); a != want || a.Count != 3*rawBudget {
		t.Fatalf("dense window: %+v, scan %+v", a, want)
	}
}
