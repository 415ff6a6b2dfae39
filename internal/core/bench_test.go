package core

import (
	"context"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/hydro/topmodel"
	"evop/internal/runcache"
)

// BenchmarkRunModelMiss measures one uncached TOPMODEL run through the
// run cache: every iteration's parameters are distinct, so each is a
// miss that simulates the 30-day record and stores its result. B/op is
// what an uncached widget run allocates.
func BenchmarkRunModelMiss(b *testing.B) {
	cfg := DefaultConfig(clock.NewSimulated(epoch))
	cfg.ForcingDays = 30
	o, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Resolve the forcing and the terrain before timing.
	if _, _, err := o.RunModelCachedContext(ctx, RunRequest{CatchmentID: "morland", Model: "topmodel"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := topmodel.DefaultParams()
		p.M += float64(i+1) * 1e-6
		_, outcome, err := o.RunModelCachedContext(ctx, RunRequest{CatchmentID: "morland", Model: "topmodel", TOPMODELParams: &p})
		if err != nil {
			b.Fatal(err)
		}
		if outcome != runcache.Miss {
			b.Fatalf("outcome = %v, want miss", outcome)
		}
	}
}

// BenchmarkObservatoryBackfill measures one world build as the benchmark
// harness makes it: New with the default configuration, Start, then a
// 30-day clock advance in which the sensors sample and the load balancer
// ticks over an idle cluster every 10 s (259,200 ticks).
func BenchmarkObservatoryBackfill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk := clock.NewSimulated(epoch)
		o, err := New(DefaultConfig(clk))
		if err != nil {
			b.Fatal(err)
		}
		o.Start()
		clk.Advance(30 * 24 * time.Hour)
		o.Stop()
	}
}
