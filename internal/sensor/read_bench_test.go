package sensor

import (
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/timeseries"
)

// yearNetwork builds a network with a year of 15-minute level readings
// (~35k observations) plus peer sensors, the scale of one LEFT catchment
// after a year in the field.
func yearNetwork(b *testing.B) (*Network, *clock.Simulated) {
	b.Helper()
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		b.Fatalf("NewNetwork: %v", err)
	}
	for _, id := range []string{"lvl", "lvl-2", "lvl-3", "lvl-4"} {
		if err := n.Add(levelSensor(id)); err != nil {
			b.Fatalf("Add(%s): %v", id, err)
		}
	}
	n.Start()
	b.Cleanup(n.Stop)
	clk.Advance(365 * 24 * time.Hour)
	return n, clk
}

// BenchmarkSeriesQueryRaw is the baseline: copy and scan a year's raw
// readings, the pre-rollup cost of a year-wide aggregate.
func BenchmarkSeriesQueryRaw(b *testing.B) {
	n, clk := yearNetwork(b)
	from, to := epoch, clk.Now().Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := n.HistoryView("lvl", from, to)
		if err != nil {
			b.Fatalf("HistoryView: %v", err)
		}
		hist := make([]timeseries.Observation, len(view))
		copy(hist, view)
		var agg timeseries.Aggregate
		for _, o := range hist {
			if agg.Count == 0 {
				agg.Min, agg.Max = o.Value, o.Value
			} else {
				if o.Value < agg.Min {
					agg.Min = o.Value
				}
				if o.Value > agg.Max {
					agg.Max = o.Value
				}
			}
			agg.Sum += o.Value
			agg.Count++
		}
		if agg.Count == 0 {
			b.Fatal("empty aggregate")
		}
	}
}

// BenchmarkSeriesQueryRollup is the same year-wide aggregate answered
// from the rollup index.
func BenchmarkSeriesQueryRollup(b *testing.B) {
	n, clk := yearNetwork(b)
	from, to := epoch, clk.Now().Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, err := n.AggregateSeries("lvl", from, to.Sub(from), 1)
		if err != nil {
			b.Fatalf("AggregateSeries: %v", err)
		}
		if aggs[0].Count == 0 {
			b.Fatal("empty aggregate")
		}
	}
}

// BenchmarkAggregateSeries is the portal's ?agg=mean&step=6h month view
// of a 15-minute level gauge: 28 days from an off-grid from, 112 buckets
// of 24 readings each. The output slice is the only allocation.
func BenchmarkAggregateSeries(b *testing.B) {
	n, clk := yearNetwork(b)
	from := clk.Now().Add(-28*24*time.Hour - 7*time.Minute - 13*time.Second)
	const step, buckets = 6 * time.Hour, 112
	query := func() []timeseries.Aggregate {
		aggs, err := n.AggregateSeries("lvl", from, step, buckets)
		if err != nil {
			b.Fatalf("AggregateSeries: %v", err)
		}
		return aggs
	}
	for i, a := range query() {
		if a.Count != 24 {
			b.Fatalf("bucket %d holds %d readings, want 24", i, a.Count)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { query() }); allocs != 1 {
		b.Fatalf("AggregateSeries allocates %v times per query, want 1 (the output slice)", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// BenchmarkSeriesQueryDownsampled measures the ?points=800 path: a
// zero-copy view downsampled to a plot-sized series. Allocs are
// reported per window length — B/op must track the 800-point budget,
// not the window (the year window holds 12× the observations of the
// month window but allocates the same).
func BenchmarkSeriesQueryDownsampled(b *testing.B) {
	n, clk := yearNetwork(b)
	for _, win := range []struct {
		name string
		d    time.Duration
	}{
		{"30d", 30 * 24 * time.Hour},
		{"365d", 365 * 24 * time.Hour},
	} {
		b.Run(win.name, func(b *testing.B) {
			from, to := clk.Now().Add(-win.d), clk.Now().Add(time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := n.HistoryView("lvl", from, to)
				if err != nil {
					b.Fatalf("HistoryView: %v", err)
				}
				out := timeseries.Downsample(view, 800)
				if len(out) == 0 || len(out) > 800 {
					b.Fatalf("downsampled to %d points", len(out))
				}
			}
		})
	}
}

// BenchmarkHistoryContention measures parallel read throughput across
// sensors — the sharded design's reason to exist. Run with -cpu to see
// scaling.
func BenchmarkHistoryContention(b *testing.B) {
	n, clk := yearNetwork(b)
	ids := []string{"lvl", "lvl-2", "lvl-3", "lvl-4"}
	from, to := clk.Now().Add(-30*24*time.Hour), clk.Now().Add(time.Hour)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := ids[i%len(ids)]
			i++
			view, err := n.HistoryView(id, from, to)
			if err != nil {
				b.Fatalf("HistoryView(%s): %v", id, err)
			}
			if len(view) == 0 {
				b.Fatal("empty view")
			}
		}
	})
}
