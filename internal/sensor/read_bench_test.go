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
		agg, err := n.AggregateWindow("lvl", from, to)
		if err != nil {
			b.Fatalf("AggregateWindow: %v", err)
		}
		if agg.Count == 0 {
			b.Fatal("empty aggregate")
		}
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
