//go:build !race

package fuse

import "testing"

// TestRunAllocatesOnlyItsResult pins Run to the series it returns: the
// Series header and its values, with the simulation buffers drawn from
// the pool. Guarded out under the race detector, which drops pooled
// items at random.
func TestRunAllocatesOnlyItsResult(t *testing.T) {
	f := testForcing(t, 720, 3)
	for _, routing := range []Routing{RouteNone, RouteGammaUH} {
		d := baseDecisions()
		d.Routing = routing
		m, err := New(d, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(f); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := m.Run(f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%v: Run allocs = %v, want <= 2 (the returned series)", d, allocs)
		}
	}
}
