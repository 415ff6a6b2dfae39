package workflow

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evop/internal/sched"
)

func constNode(id string, v any, deps ...string) Node[any] {
	return Node[any]{ID: id, Deps: deps, Run: func(context.Context, map[string]any) (any, error) {
		return v, nil
	}}
}

// testPool returns a pool of the given width, closed when the test ends.
func testPool(t *testing.T, workers int) *sched.Pool {
	t.Helper()
	p, err := sched.New(sched.Config{Workers: workers})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// newWorkflow returns an empty workflow of untyped outputs on a
// 2-worker pool.
func newWorkflow(t *testing.T, name string) *Workflow[any] {
	return New[any](name, testPool(t, 2))
}

func TestAddValidation(t *testing.T) {
	w := newWorkflow(t, "t")
	if err := w.Add(Node[any]{ID: "", Run: constNode("x", 1).Run}); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("empty ID err = %v", err)
	}
	if err := w.Add(Node[any]{ID: "a"}); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("nil runner err = %v", err)
	}
	if err := w.Add(constNode("a", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := w.Add(constNode("a", 2)); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestValidateGraphErrors(t *testing.T) {
	empty := newWorkflow(t, "empty")
	if _, err := empty.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("empty err = %v", err)
	}

	missing := newWorkflow(t, "missing")
	missing.Add(constNode("a", 1, "ghost"))
	if _, err := missing.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("missing dep err = %v", err)
	}

	cyclic := newWorkflow(t, "cyclic")
	cyclic.Add(constNode("a", 1, "b"))
	cyclic.Add(constNode("b", 1, "a"))
	if _, err := cyclic.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("cycle err = %v", err)
	}
}

// TestValidateTopologicalOrder pins the waves: each node one layer
// below its deepest dependency, each wave sorted by ID — also where a
// global ID order would interleave the layers (b before y).
func TestValidateTopologicalOrder(t *testing.T) {
	tests := []struct {
		name  string
		nodes []Node[any]
		want  [][]string
	}{
		{"diamond", []Node[any]{
			constNode("d", 4, "b", "c"), constNode("b", 2, "a"), constNode("c", 3, "a"), constNode("a", 1),
		}, [][]string{{"a"}, {"b", "c"}, {"d"}}},
		{"layers against ID order", []Node[any]{
			constNode("x", 1), constNode("y", 2), constNode("b", 3, "x"), constNode("a", 4, "y"),
		}, [][]string{{"x", "y"}, {"a", "b"}}},
		{"uneven depths", []Node[any]{
			constNode("c", 1, "a", "b"), constNode("b", 2, "a"), constNode("a", 3), constNode("z", 4),
		}, [][]string{{"a", "z"}, {"b"}, {"c"}}},
	}
	for _, tc := range tests {
		w := newWorkflow(t, "topo")
		for _, n := range tc.nodes {
			if err := w.Add(n); err != nil {
				t.Fatalf("%s: Add: %v", tc.name, err)
			}
		}
		waves, err := w.Validate()
		if err != nil {
			t.Fatalf("%s: Validate: %v", tc.name, err)
		}
		if !reflect.DeepEqual(waves, tc.want) {
			t.Errorf("%s: waves = %v, want %v", tc.name, waves, tc.want)
		}
	}
}

func TestExecuteDataflow(t *testing.T) {
	// rain -> double -> plus third input -> sum
	w := newWorkflow(t, "pipeline")
	w.Add(Node[any]{ID: "rain", Run: func(context.Context, map[string]any) (any, error) {
		return 10.0, nil
	}})
	w.Add(Node[any]{ID: "double", Deps: []string{"rain"}, Run: func(_ context.Context, in map[string]any) (any, error) {
		return in["rain"].(float64) * 2, nil
	}})
	w.Add(Node[any]{ID: "offset", Run: func(context.Context, map[string]any) (any, error) {
		return 5.0, nil
	}})
	w.Add(Node[any]{ID: "sum", Deps: []string{"double", "offset"}, Run: func(_ context.Context, in map[string]any) (any, error) {
		return in["double"].(float64) + in["offset"].(float64), nil
	}})

	res, err := w.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Outputs["sum"] != 25.0 {
		t.Fatalf("sum = %v, want 25", res.Outputs["sum"])
	}
	if res.Waves != 3 {
		t.Fatalf("waves = %d, want 3", res.Waves)
	}
	if len(res.Trace) != 4 {
		t.Fatalf("trace = %d entries", len(res.Trace))
	}
	// Trace is ordered by wave then ID and carries inputs.
	if res.Trace[0].Wave != 0 || res.Trace[len(res.Trace)-1].Node != "sum" {
		t.Fatalf("trace order: %+v", res.Trace)
	}
	for _, e := range res.Trace {
		if e.Node == "sum" && (len(e.Inputs) != 2 || e.Inputs[0] != "double") {
			t.Fatalf("sum inputs = %v", e.Inputs)
		}
		if e.Fingerprint == "" {
			t.Fatalf("missing fingerprint for %s", e.Node)
		}
	}
}

func TestExecuteParallelWave(t *testing.T) {
	// Independent nodes in the same wave run concurrently up to the
	// pool's width: with a 2-node wave where each waits for the other,
	// serial execution would deadlock, while the one worker and the
	// helping caller meet at the barrier.
	var entered sync.WaitGroup
	entered.Add(2)
	barrier := make(chan struct{})
	go func() {
		entered.Wait()
		close(barrier)
	}()
	mk := func(id string) Node[any] {
		return Node[any]{ID: id, Run: func(ctx context.Context, _ map[string]any) (any, error) {
			entered.Done()
			select {
			case <-barrier:
				return id, nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("peer never entered: not parallel")
			}
		}}
	}
	w := New[any]("par", testPool(t, 1))
	w.Add(mk("a"))
	w.Add(mk("b"))
	if _, err := w.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
}

// TestExecuteBoundedConcurrency pins the fan-out to the pool: a
// 64-node wave on a 2-worker pool never runs more nodes at once than
// the workers plus the calling goroutine.
func TestExecuteBoundedConcurrency(t *testing.T) {
	const workers = 2
	w := New[int]("wide", testPool(t, workers))
	var running, peak atomic.Int64
	for i := range 64 {
		w.Add(Node[int]{ID: "n" + strconv.Itoa(i), Run: func(context.Context, map[string]int) (int, error) {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return i, nil
		}})
	}
	res, err := w.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Waves != 1 || len(res.Trace) != 64 {
		t.Fatalf("waves = %d, trace = %d entries; want 1 and 64", res.Waves, len(res.Trace))
	}
	if got, limit := peak.Load(), int64(workers+1); got > limit {
		t.Fatalf("%d nodes ran at once, want at most %d", got, limit)
	}
}

func TestExecuteNodeFailure(t *testing.T) {
	w := newWorkflow(t, "fail")
	w.Add(constNode("ok", 1))
	w.Add(Node[any]{ID: "bad", Deps: []string{"ok"}, Run: func(context.Context, map[string]any) (any, error) {
		return nil, errors.New("boom")
	}})
	var downstreamRan atomic.Bool
	w.Add(Node[any]{ID: "after", Deps: []string{"bad"}, Run: func(context.Context, map[string]any) (any, error) {
		downstreamRan.Store(true)
		return 1, nil
	}})
	_, err := w.Execute(context.Background())
	if !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("err = %v, want ErrNodeFailed", err)
	}
	if downstreamRan.Load() {
		t.Fatal("downstream node ran after failure")
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := newWorkflow(t, "cancel")
	w.Add(Node[any]{ID: "first", Run: func(context.Context, map[string]any) (any, error) {
		cancel()
		return 1, nil
	}})
	w.Add(Node[any]{ID: "second", Deps: []string{"first"}, Run: func(context.Context, map[string]any) (any, error) {
		return 2, nil
	}})
	if _, err := w.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReplayReproducible(t *testing.T) {
	w := newWorkflow(t, "repro")
	w.Add(constNode("a", 42))
	w.Add(Node[any]{ID: "b", Deps: []string{"a"}, Run: func(_ context.Context, in map[string]any) (any, error) {
		return in["a"].(int) * 2, nil
	}})
	ref, err := w.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	res, err := w.Replay(context.Background(), ref)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Outputs["b"] != 84 {
		t.Fatalf("replayed b = %v", res.Outputs["b"])
	}
}

func TestReplayDetectsNondeterminism(t *testing.T) {
	var counter atomic.Int64
	w := newWorkflow(t, "flaky")
	w.Add(Node[any]{ID: "n", Run: func(context.Context, map[string]any) (any, error) {
		return counter.Add(1), nil // different output each run
	}})
	ref, err := w.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := w.Replay(context.Background(), ref); !errors.Is(err, ErrNotReproducible) {
		t.Fatalf("Replay err = %v, want ErrNotReproducible", err)
	}
	if _, err := w.Replay(context.Background(), nil); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("nil reference err = %v", err)
	}
}

func TestReplayDetectsMissingNode(t *testing.T) {
	w := newWorkflow(t, "w")
	w.Add(constNode("a", 1))
	ref := &Result[any]{Trace: []TraceEntry{{Node: "other", Fingerprint: "x"}}}
	if _, err := w.Replay(context.Background(), ref); !errors.Is(err, ErrNotReproducible) {
		t.Fatalf("err = %v", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	if Fingerprint([]float64{1, 2, 3}) != Fingerprint([]float64{1, 2, 3}) {
		t.Fatal("equal values fingerprint differently")
	}
	if Fingerprint(1) == Fingerprint(2) {
		t.Fatal("different values collide (suspicious)")
	}
}
