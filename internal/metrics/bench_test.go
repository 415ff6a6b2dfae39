package metrics

import (
	"testing"
	"time"
)

// BenchmarkCounterAdd measures the counter hot path; it must report
// 0 allocs/op (the record path is one atomic add).
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() == 0 {
		b.Fatal("counter did not count")
	}
}

// BenchmarkHistogramRecord measures the histogram hot path; it must
// report 0 allocs/op (bucket add + sum add + max CAS, no locks).
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram(DurationScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i))
	}
	if h.Snapshot().Count == 0 {
		b.Fatal("histogram did not record")
	}
}

// BenchmarkHistogramRecordParallel exercises contention on the shared
// atomics across GOMAXPROCS recorders.
func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram(DurationScale)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(1)
		for pb.Next() {
			h.Record(v)
			v = v*6364136223846793005 + 1442695040888963407
		}
	})
}

// TestRecordPathAllocs pins the 0 allocs/op contract directly, so it
// fails in the plain test tier rather than only under -bench.
func TestRecordPathAllocs(t *testing.T) {
	var c Counter
	h := NewHistogram(DurationScale)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordDuration(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.RecordDuration allocates %v/op, want 0", n)
	}
}
