package sensor

import (
	"testing"
	"time"

	"evop/internal/clock"
)

// BenchmarkFrameNearest measures the nearest-frame lookup behind the
// Fig. 5 multimodal widget against a year of hourly webcam frames.
func BenchmarkFrameNearest(b *testing.B) {
	clk := clock.NewSimulated(epoch)
	n, err := NewNetwork(clk, nil)
	if err != nil {
		b.Fatalf("NewNetwork: %v", err)
	}
	if err := n.Add(camSensor("cam")); err != nil {
		b.Fatalf("Add: %v", err)
	}
	n.Start()
	defer n.Stop()
	clk.Advance(365 * 24 * time.Hour) // one frame per hour for a year

	at := epoch.Add(200*24*time.Hour + 17*time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.FrameNearest("cam", at); err != nil {
			b.Fatalf("FrameNearest: %v", err)
		}
	}
}
