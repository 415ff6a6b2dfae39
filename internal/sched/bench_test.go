package sched

import (
	"context"
	"math"
	"testing"
)

// BenchmarkSchedMap measures dispatching a 1024-index batch through
// ForEach: per-batch overhead of the pool, not the task bodies.
// allocs/op is pinned by TestSchedMapAllocs.
func BenchmarkSchedMap(b *testing.B) {
	p, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer p.Close()
	out := make([]float64, 1024)
	ctx := context.Background()
	fn := func(i int) error {
		out[i] = math.Sqrt(float64(i))
		return nil
	}
	if err := ForEach(ctx, p, ClassModel, len(out), fn); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ForEach(ctx, p, ClassModel, len(out), fn); err != nil {
			b.Fatalf("ForEach: %v", err)
		}
	}
}
