//go:build !race

package timeseries

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestWriteFlotAllocs pins both streaming writers to zero allocations
// whatever the series length: the scratch chunk comes from a pool.
// Guarded out under the race detector, which drops pooled items at
// random.
func TestWriteFlotAllocs(t *testing.T) {
	for _, n := range []int{10, 10000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Sin(float64(i)) * 1e3
		}
		s := MustNew(t0, time.Minute, vals)
		obs := seriesObs(s)
		for name, write := range map[string]func(io.Writer) error{
			"Series.WriteFlot": s.WriteFlot,
			"WriteFlot":        func(w io.Writer) error { return WriteFlot(w, obs) },
		} {
			if allocs := testing.AllocsPerRun(20, func() {
				if err := write(io.Discard); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%s allocs = %.1f at %d points, want 0", name, allocs, n)
			}
		}
	}
}
