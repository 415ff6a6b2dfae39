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
// count and chunk size. ForEach picks n/(8·workers) indices per chunk,
// at least 1, so each chunk size is reached by choosing n: chunk=0 is
// the size picked for n=257, the rest leave a short last chunk. The
// pool's per-chunk latency count confirms the chunking.
func TestForEachMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{0, 1, 3, 64, 258} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, chunk), func(t *testing.T) {
				n, size := 257, max(257/(8*workers), 1)
				if chunk > 0 {
					n, size = 8*workers*(chunk+1)-1, chunk
				}
				p := newPool(t, Config{Workers: workers})
				got := make([]float64, n)
				err := ForEach(context.Background(), p, ClassModel, n, func(i int) error {
					got[i] = float64(i*i) + 0.5
					return nil
				})
				if err != nil {
					t.Fatalf("ForEach: %v", err)
				}
				for i := range got {
					if want := float64(i*i) + 0.5; got[i] != want {
						t.Fatalf("got[%d] = %v, want %v", i, got[i], want)
					}
				}
				p.Close() // a worker records its chunk's latency after the batch completes
				if chunks, want := p.latency[ClassModel].Count(), uint64((n+size-1)/size); chunks != want {
					t.Fatalf("n=%d ran %d chunks, want %d of %d indices", n, chunks, want, size)
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
	var order []int
	err := ForEach(context.Background(), nil, ClassModel, 10, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d tasks, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline task %d ran index %d, want sequential order", i, v)
		}
	}
}

// TestFirstErrorCancels pins error semantics: the single failing task's
// error comes back, and remaining work is skipped rather than run to
// completion. The failing task is the first one to execute, whatever
// its index: executors pop their queues LIFO, so a fixed low index would
// run among the last and leave nothing behind it to skip. Every other
// task yields until the batch has recorded that error, so the schedule
// cannot let the other executors drain the queue first: each executor
// (the workers and the helping submitter) runs at most one task. With
// n = 8·workers every chunk holds one index, and the failing task finds
// its batch among the chunks still queued behind it.
func TestFirstErrorCancels(t *testing.T) {
	p := newPool(t, Config{Workers: 2})
	sentinel := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	var b *batch
	err := ForEach(context.Background(), p, ClassBulk, 8*p.Workers(), func(i int) error {
		mu.Lock()
		ran++
		first := ran == 1
		if first {
			b = queuedBatch(t, p)
		}
		mu.Unlock()
		if first {
			return fmt.Errorf("index %d: %w", i, sentinel)
		}
		for {
			mu.Lock()
			recorded := b != nil && b.stopped()
			mu.Unlock()
			if recorded {
				return nil
			}
			runtime.Gosched()
		}
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

// queuedBatch returns the batch of a chunk still queued on p.
func queuedBatch(t *testing.T, p *Pool) *batch {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, qs := range p.queues {
		for _, q := range qs {
			for _, c := range q {
				if c.b != nil {
					return c.b
				}
			}
		}
	}
	t.Fatal("no batch chunk queued")
	return nil
}

// TestLowestIndexErrorWins: with every index failing, the reported
// error is the lowest-index one among the tasks that actually executed
// — the error a sequential loop over the observed set would surface.
// With n = 8·workers every chunk holds one index.
func TestLowestIndexErrorWins(t *testing.T) {
	p := newPool(t, Config{Workers: 4})
	var mu sync.Mutex
	lowest := -1
	err := ForEach(context.Background(), p, ClassBulk, 8*p.Workers(), func(i int) error {
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
	err := ForEach(ctx, p, ClassModel, 100, func(i int) error {
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
	err = ForEach(ctx2, p, ClassModel, 1000, func(i int) error {
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

// TestNestedForEachNoDeadlock: a bulk task running on the pool fans out
// its own batch on the same pool. The helping-submitter design must keep
// this making progress even on a single-worker pool.
func TestNestedForEachNoDeadlock(t *testing.T) {
	p := newPool(t, Config{Workers: 1})
	var mu sync.Mutex
	total := 0
	err := ForEach(context.Background(), p, ClassBulk, 4, func(i int) error {
		return ForEach(context.Background(), p, ClassModel, 8, func(j int) error {
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
	got := make([]int, 20)
	if err := ForEach(context.Background(), p, ClassModel, 20, func(i int) error {
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
// under the race detector.
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
			out := make([]int, 200)
			for round := 0; round < 20; round++ {
				if err := ForEach(context.Background(), p, class, len(out), func(i int) error {
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
