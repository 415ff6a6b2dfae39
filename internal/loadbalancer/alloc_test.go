//go:build !race

package loadbalancer

import "testing"

// TestTickAllocs pins the steady-state control tick at zero allocations:
// on a warm cluster with nothing to launch, replace or reclaim, a tick
// reads the shared instance lists and allocates nothing. Guarded out
// under the race detector, whose instrumentation perturbs allocation
// counts.
func TestTickAllocs(t *testing.T) {
	h := newWarmHarness(t)
	if allocs := testing.AllocsPerRun(100, h.lb.Tick); allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f objects, want 0", allocs)
	}
}

// TestLoopTickAllocs pins the idle control loop at zero allocations: a
// tick through the clock reuses the loop's one timer entry.
func TestLoopTickAllocs(t *testing.T) {
	h := newWarmHarness(t)
	h.lb.Start()
	defer h.lb.Stop()
	ticks := h.lb.Ticks()
	allocs := testing.AllocsPerRun(100, func() { h.clk.Advance(h.lb.cfg.Interval) })
	if h.lb.Ticks() == ticks {
		t.Fatal("the loop did not tick")
	}
	if allocs != 0 {
		t.Fatalf("idle loop tick allocates %.1f objects, want 0", allocs)
	}
}

// TestPlaceNowAllocs pins the broker's placement call, on every
// session connect, at zero allocations.
func TestPlaceNowAllocs(t *testing.T) {
	h := newWarmHarness(t)
	var got bool
	allocs := testing.AllocsPerRun(100, func() { got = h.lb.PlaceNow("topmodel") != nil })
	if !got {
		t.Fatal("PlaceNow found no instance on the warm cluster")
	}
	if allocs != 0 {
		t.Fatalf("PlaceNow allocates %.1f objects, want 0", allocs)
	}
}
