//go:build !race

package quality

import (
	"math"
	"runtime"
	"testing"
)

// TestExportAllocBytes pins Export on a 2,880-step record (120 days
// hourly) to the two series it returns, the baseflow and the sediment
// concentration: 2·8·n bytes of samples plus a constant for their
// headers, the Loads and the rounding of each array up to its size
// class (23,040 bytes to 24,576). Guarded out under the race detector,
// whose instrumentation perturbs allocation counts.
func TestExportAllocBytes(t *testing.T) {
	const (
		n     = 2880
		slack = 4096
		runs  = 20
	)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 + math.Sin(float64(i)/7)
	}
	q := series(vals...)
	p := DefaultParams()
	export := func() {
		if _, err := Export(q, 12, p); err != nil {
			t.Fatal(err)
		}
	}
	export()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		export()
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(2*8*n+slack); got > limit {
		t.Fatalf("Export allocates %d bytes per call on %d steps, want at most %d", got, n, limit)
	}
}
