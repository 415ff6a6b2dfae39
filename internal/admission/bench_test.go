package admission

import (
	"context"
	"testing"
	"time"

	"evop/internal/clock"
)

// BenchmarkAdmissionHotPath measures the steady-state admit/release
// round trip for one warm client. The CI bench smoke tier runs it every
// build; the companion TestAdmitHotPathAllocs pins it at 0 allocs/op.
func BenchmarkAdmissionHotPath(b *testing.B) {
	clk := clock.NewSimulated(testStart)
	c := New(clk, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%burst == burst-1 {
			// Refill the client's bucket off the clock.
			b.StopTimer()
			clk.Advance(burst * time.Second / ratePerSecond)
			b.StartTimer()
		}
		if _, err := c.Admit(ctx, Live, "10.0.0.1"); err != nil {
			b.Fatal(err)
		}
		c.Release(Live)
	}
}
