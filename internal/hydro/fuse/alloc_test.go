//go:build !race

package fuse

import (
	"context"
	"runtime"
	"testing"

	"evop/internal/sched"
)

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

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPortalEnsembleAllocatesOnlyTheMean pins the portal's three-member
// ensemble to one record-length allocation, the mean: at 720 and 2,880
// steps, inline and on a pool, it allocates 8 bytes a step plus a small
// constant: the models, their unit hydrographs, the task bookkeeping and
// the allocator's rounding of the mean up to its size class. The
// members are summed straight out of pooled scratch.
func TestPortalEnsembleAllocatesOnlyTheMean(t *testing.T) {
	pool, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const slack = 4096
	for _, n := range []int{720, 2880} {
		f := testForcing(t, n, 5)
		for _, p := range []*sched.Pool{nil, pool} {
			got := bytesPerRun(50, func() {
				if _, err := RunEnsembleOn(context.Background(), p, portalDecisions(), DefaultParams(), f, nil); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("n=%d pool=%v: %.0f B/run, %.0f above the mean", n, p != nil, got, got-float64(8*n))
			if extra := got - float64(8*n); extra < 0 || extra > slack {
				t.Errorf("n=%d pool=%v: %.0f B/run, want 8·n = %d plus at most %d", n, p != nil, got, 8*n, slack)
			}
		}
	}
}
