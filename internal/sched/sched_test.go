package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Workers: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Workers=-1: err = %v, want ErrBadConfig", err)
	}
	p := newPool(t, Config{})
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers = %d, want GOMAXPROCS = %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
}

func TestClassString(t *testing.T) {
	if ClassModel.String() != "model" || ClassBulk.String() != "bulk" {
		t.Fatalf("Class strings = %q/%q", ClassModel.String(), ClassBulk.String())
	}
}

// TestForEachMatchesSequential pins the determinism contract: results
// written by index are identical to a sequential loop for any worker
// count and chunk size.
func TestForEachMatchesSequential(t *testing.T) {
	const n = 257
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i*i) + 0.5
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{0, 1, 3, 64, n + 1} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, chunk), func(t *testing.T) {
				p := newPool(t, Config{Workers: workers})
				r := NewRunner[struct{}](p, ClassModel, nil)
				r.SetChunk(chunk)
				got := make([]float64, n)
				err := r.ForEach(context.Background(), n, func(_ struct{}, i int) error {
					got[i] = float64(i*i) + 0.5
					return nil
				})
				if err != nil {
					t.Fatalf("ForEach: %v", err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	p := newPool(t, Config{Workers: 4})
	out, err := Map(context.Background(), p, ClassBulk, 100, func(i int) (int, error) {
		return i * 3, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	calls := 0
	r := NewRunner(nil, ClassModel, func() *int { calls++; return new(int) })
	got := make([]int, 10)
	err := r.ForEach(context.Background(), 10, func(st *int, i int) error {
		*st++
		got[i] = i
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if calls != 1 {
		t.Fatalf("factory ran %d times inline, want 1", calls)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if err := ForEach(context.Background(), nil, ClassBulk, 3, func(int) error { return nil }); err != nil {
		t.Fatalf("package ForEach on nil pool: %v", err)
	}
}

// TestFirstErrorCancels pins error semantics: the single failing task's
// error comes back, and remaining work is skipped rather than run to
// completion. The failing task is the first one to execute, whatever
// its index: executors pop their queues LIFO, so a fixed low index would
// run among the last and leave nothing behind it to skip. Every other
// task yields until the batch has recorded that error, so the schedule
// cannot let the other executors drain the queue first: each executor
// (the workers and the helping submitter) runs at most one task.
func TestFirstErrorCancels(t *testing.T) {
	p := newPool(t, Config{Workers: 2})
	sentinel := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	r := NewRunner[struct{}](p, ClassBulk, nil)
	r.SetChunk(1)
	err := r.ForEach(context.Background(), 1000, func(_ struct{}, i int) error {
		mu.Lock()
		ran++
		first := ran == 1
		mu.Unlock()
		if first {
			return fmt.Errorf("index %d: %w", i, sentinel)
		}
		for !r.b.stopped() {
			runtime.Gosched()
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ForEach err = %v, want wrapped sentinel", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if executors := p.Workers() + 1; ran > executors {
		t.Fatalf("%d tasks ran, want at most one per executor (%d): the error did not cancel remaining work", ran, executors)
	}
}

// TestLowestIndexErrorWins: with every index failing, the reported
// error is the lowest-index one among the tasks that actually executed
// — the error a sequential loop over the observed set would surface.
func TestLowestIndexErrorWins(t *testing.T) {
	p := newPool(t, Config{Workers: 4})
	r := NewRunner[struct{}](p, ClassBulk, nil)
	r.SetChunk(1)
	var mu sync.Mutex
	lowest := -1
	err := r.ForEach(context.Background(), 64, func(_ struct{}, i int) error {
		mu.Lock()
		if lowest < 0 || i < lowest {
			lowest = i
		}
		mu.Unlock()
		return fmt.Errorf("fail-%03d", i)
	})
	mu.Lock()
	want := fmt.Sprintf("fail-%03d", lowest)
	mu.Unlock()
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s (lowest executed index)", err, want)
	}
}

func TestContextCancellation(t *testing.T) {
	p := newPool(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner[struct{}](p, ClassModel, nil)
	err := r.ForEach(ctx, 100, func(_ struct{}, i int) error {
		t.Error("task ran under canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Mid-flight cancellation: the first task cancels, the rest are
	// skipped and the context error comes back.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var mu sync.Mutex
	ran := 0
	err = r.ForEach(ctx2, 1000, func(_ struct{}, i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		cancel2()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Fatal("cancellation did not skip remaining work")
	}
}

// TestWorkerStateReuse pins the scratch contract: the factory runs at
// most once per executor slot regardless of task count.
func TestWorkerStateReuse(t *testing.T) {
	const workers = 4
	p := newPool(t, Config{Workers: workers})
	var mu sync.Mutex
	built := 0
	r := NewRunner(p, ClassModel, func() *[]byte {
		mu.Lock()
		built++
		mu.Unlock()
		buf := make([]byte, 64)
		return &buf
	})
	for round := 0; round < 5; round++ {
		if err := r.ForEach(context.Background(), 500, func(st *[]byte, i int) error {
			(*st)[i%64]++
			return nil
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if built > workers+1 {
		t.Fatalf("factory ran %d times, want <= %d (workers+submitter)", built, workers+1)
	}
}

// TestNestedForEachNoDeadlock: a bulk task running on the pool fans out
// its own batch on the same pool. The helping-submitter design must keep
// this making progress even on a single-worker pool.
func TestNestedForEachNoDeadlock(t *testing.T) {
	p := newPool(t, Config{Workers: 1})
	outer := NewRunner[struct{}](p, ClassBulk, nil)
	var mu sync.Mutex
	total := 0
	err := outer.ForEach(context.Background(), 4, func(_ struct{}, i int) error {
		inner := NewRunner[struct{}](p, ClassModel, nil)
		return inner.ForEach(context.Background(), 8, func(_ struct{}, j int) error {
			mu.Lock()
			total++
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatalf("nested ForEach: %v", err)
	}
	if total != 32 {
		t.Fatalf("inner tasks ran %d times, want 32", total)
	}
}

// TestModelOutranksBulk pins the priority contract: with the single
// worker pinned, queued model tasks run before bulk tasks that were
// submitted earlier.
func TestModelOutranksBulk(t *testing.T) {
	p := newPool(t, Config{Workers: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(ClassBulk, func() { close(started); <-block }); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	record := func(s string) func() {
		return func() { mu.Lock(); order = append(order, s); mu.Unlock() }
	}
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		if err := p.TrySubmit(ClassBulk, record(fmt.Sprintf("bulk%d", i))); err != nil {
			t.Fatalf("bulk%d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := p.TrySubmit(ClassModel, record(fmt.Sprintf("model%d", i))); err != nil {
			t.Fatalf("model%d: %v", i, err)
		}
	}
	if err := p.TrySubmit(ClassBulk, func() { close(done) }); err != nil {
		t.Fatalf("closer: %v", err)
	}
	close(block)
	<-done

	mu.Lock()
	defer mu.Unlock()
	for i, s := range order[:3] {
		if s[:5] != "model" {
			t.Fatalf("order[%d] = %q, want a model task first (order %v)", i, s, order)
		}
	}
}

func TestTrySubmitBound(t *testing.T) {
	p := newPool(t, Config{Workers: 1})
	if err := p.TrySubmit(ClassBulk, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil fn: err = %v, want ErrBadConfig", err)
	}
	if err := p.TrySubmit(Class(9), func() {}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad class: err = %v, want ErrBadConfig", err)
	}

	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(ClassBulk, func() { close(started); <-block }); err != nil {
		t.Fatalf("first: %v", err)
	}
	<-started
	for i := 2; i <= asyncPerWorker; i++ {
		if err := p.TrySubmit(ClassBulk, func() {}); err != nil {
			t.Fatalf("task %d of %d: %v", i, asyncPerWorker, err)
		}
	}
	if err := p.TrySubmit(ClassBulk, func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("task %d: err = %v, want ErrSaturated", asyncPerWorker+1, err)
	}
	close(block)
}

// TestPoolCloseDrainsWorkers is the goroutine-leak check: every accepted
// task still runs, and after Close the pool's goroutines are gone.
func TestPoolCloseDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p, err := New(Config{Workers: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 100; i++ {
		if err := p.TrySubmit(ClassBulk, func() { mu.Lock(); ran++; mu.Unlock() }); err != nil {
			t.Fatalf("TrySubmit %d: %v", i, err)
		}
	}
	p.Close()
	mu.Lock()
	if ran != 100 {
		mu.Unlock()
		t.Fatalf("ran = %d after Close, want 100 (accepted work must drain)", ran)
	}
	mu.Unlock()
	p.Close() // closing twice is safe

	if err := p.TrySubmit(ClassBulk, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close: err = %v, want ErrClosed", err)
	}

	// The workers must actually have exited, not merely gone idle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForEachAfterClose: a closed pool degrades to an inline loop rather
// than erroring or hanging.
func TestForEachAfterClose(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Close()
	r := NewRunner[struct{}](p, ClassModel, nil)
	got := make([]int, 20)
	if err := r.ForEach(context.Background(), 20, func(_ struct{}, i int) error {
		got[i] = i + 1
		return nil
	}); err != nil {
		t.Fatalf("ForEach on closed pool: %v", err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestSchedMetrics(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	reg := metrics.NewRegistry(clk)
	p := newPool(t, Config{Workers: 2, Metrics: reg})
	if err := ForEach(context.Background(), p, ClassModel, 50, func(int) error { return nil }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	snap := reg.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		switch m.SeriesID() {
		case `evop_sched_tasks_total{class="model"}`:
			found = true
			if m.Value != 50 {
				t.Fatalf("evop_sched_tasks_total{class=model} = %v, want 50", m.Value)
			}
		case `evop_sched_queue_depth{class="model"}`, `evop_sched_queue_depth{class="bulk"}`:
			if m.Value != 0 {
				t.Fatalf("%s = %v after drain, want 0", m.SeriesID(), m.Value)
			}
		}
	}
	if !found {
		t.Fatal("evop_sched_tasks_total{class=model} not in snapshot")
	}
}

// TestForEachHammer exercises concurrent batches from many goroutines
// (each with its own Runner) under the race detector.
func TestForEachHammer(t *testing.T) {
	p := newPool(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := ClassModel
			if g%2 == 0 {
				class = ClassBulk
			}
			r := NewRunner[struct{}](p, class, nil)
			out := make([]int, 200)
			for round := 0; round < 20; round++ {
				if err := r.ForEach(context.Background(), len(out), func(_ struct{}, i int) error {
					out[i] = i + round
					return nil
				}); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				for i, v := range out {
					if v != i+round {
						t.Errorf("goroutine %d round %d: out[%d] = %d", g, round, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
