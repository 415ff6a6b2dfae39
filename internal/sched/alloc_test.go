//go:build !race

package sched

import (
	"context"
	"testing"
)

// TestSchedMapAllocs pins the steady-state allocation contract: a batch
// dispatched across the pool allocates only its batch struct — the
// queue slices keep their capacity between batches. Guarded out under
// the race detector, whose instrumentation perturbs allocation counts.
func TestSchedMapAllocs(t *testing.T) {
	p, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	out := make([]float64, 1024)
	ctx := context.Background()
	fn := func(i int) error {
		out[i] = float64(i)
		return nil
	}
	// Warm up: grows the queues.
	for i := 0; i < 3; i++ {
		if err := ForEach(ctx, p, ClassModel, len(out), fn); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ForEach(ctx, p, ClassModel, len(out), fn); err != nil {
			t.Fatalf("ForEach: %v", err)
		}
	})
	if allocs != 1 {
		t.Fatalf("steady-state ForEach allocates %.1f objects per batch, want 1", allocs)
	}
}
