package runcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evop/internal/metrics"
)

// Get returns the cached value without computing, refreshing its
// recency on a hit. It does not touch the hit/miss counters.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// newMetered builds a cache whose counters live in a fresh registry and
// returns a reader for its evop_runcache_<name>_total series.
func newMetered(capacity int) (*Cache[int], func(name string) uint64) {
	reg := metrics.NewRegistry(nil)
	return New[int](capacity, reg), func(name string) uint64 {
		return reg.Counter("evop_runcache_"+name+"_total", "").Value()
	}
}

func TestDoMissThenHit(t *testing.T) {
	c, count := newMetered(4)
	calls := 0
	compute := func(context.Context) (int, error) { calls++; return 42, nil }

	v, out, err := c.Do(context.Background(), "k", compute)
	if err != nil || v != 42 || out != Miss {
		t.Fatalf("first Do = %v %v %v, want 42 miss nil", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", compute)
	if err != nil || v != 42 || out != Hit {
		t.Fatalf("second Do = %v %v %v, want 42 hit nil", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if count("hits") != 1 || count("misses") != 1 || count("coalesced") != 0 || c.Len() != 1 {
		t.Fatalf("hits/misses/coalesced/size = %d/%d/%d/%d, want 1/1/0/1",
			count("hits"), count("misses"), count("coalesced"), c.Len())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](4, nil)
	boom := errors.New("boom")
	calls := 0
	if _, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("Do = %v %v, want miss boom", out, err)
	}
	if _, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 7, nil }); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error must not be cached)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c, count := newMetered(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), key, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s evicted, want retained", key)
		}
	}
	if count("evictions") != 1 || c.Len() != 2 {
		t.Fatalf("evictions/size = %d/%d, want 1/2", count("evictions"), c.Len())
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := New[int](2, nil)
	_, _, _ = c.Do(context.Background(), "a", func(context.Context) (int, error) { return 1, nil })
	_, _, _ = c.Do(context.Background(), "b", func(context.Context) (int, error) { return 2, nil })
	// Touch a so b becomes the eviction candidate.
	if _, out, _ := c.Do(context.Background(), "a", nil); out != Hit {
		t.Fatal("want hit for a")
	}
	_, _, _ = c.Do(context.Background(), "c", func(context.Context) (int, error) { return 3, nil })
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-touched entry a evicted")
	}
}

func TestCoalescing(t *testing.T) {
	c, count := newMetered(4)
	const waiters = 8
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	values := make([]int, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 99, nil
		})
		if err != nil {
			t.Error(err)
		}
		values[0], outcomes[0] = v, out
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				computes.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			values[i], outcomes[i] = v, out
		}()
	}
	// Wait until every duplicate is parked on the in-flight computation.
	for count("coalesced") < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	coalesced := 0
	for i, out := range outcomes {
		if values[i] != 99 {
			t.Fatalf("waiter %d got %d, want 99", i, values[i])
		}
		if out == Coalesced {
			coalesced++
		}
	}
	if coalesced != waiters-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, waiters-1)
	}
}

func TestPurgeDropsEntriesAndStaleFlights(t *testing.T) {
	c := New[int](4, nil)
	_, _, _ = c.Do(context.Background(), "k", func(context.Context) (int, error) { return 1, nil })

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A second key is computing while Purge lands: its result must be
		// returned to the caller but not stored (it may reflect pre-purge
		// inputs).
		v, _, err := c.Do(context.Background(), "stale", func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("stale Do = %v %v", v, err)
		}
	}()
	<-started
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	close(release)
	<-done
	if _, ok := c.Get("stale"); ok {
		t.Fatal("result computed across a purge was cached")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("purged entry still cached")
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int](0, nil)
	_, _, _ = c.Do(context.Background(), "a", func(context.Context) (int, error) { return 1, nil })
	if _, ok := c.Get("a"); !ok {
		t.Fatal("capacity floor of one not applied")
	}
}

func TestDoDeadContextNeverComputes(t *testing.T) {
	c, count := newMetered(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, out, err := c.Do(ctx, "k", func(context.Context) (int, error) { calls++; return 1, nil })
	if out != Canceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v %v, want canceled", out, err)
	}
	if calls != 0 {
		t.Fatal("compute ran for an already-dead context")
	}
	// A cached value is still served to a dead context: no work, no wait.
	_, _, _ = c.Do(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
	if v, out, err := c.Do(ctx, "k", nil); v != 9 || out != Hit || err != nil {
		t.Fatalf("dead-context hit = %v %v %v, want 9 hit nil", v, out, err)
	}
	if got := count("canceled"); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

// TestCanceledFollowerDoesNotKillFlight is the request-pipeline contract:
// one browser abandoning a run must not steal the shared result from the
// waiters still connected.
func TestCanceledFollowerDoesNotKillFlight(t *testing.T) {
	c, count := newMetered(4)
	started := make(chan struct{})
	release := make(chan struct{})
	var computeCtxErr atomic.Value

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, out, err := c.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			close(started)
			<-release
			computeCtxErr.Store(fmt.Sprint(ctx.Err()))
			return 42, nil
		})
		if err != nil || v != 42 || out != Miss {
			t.Errorf("leader Do = %v %v %v", v, out, err)
		}
	}()
	<-started

	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		_, out, err := c.Do(fctx, "k", nil)
		if out != Canceled || !errors.Is(err, context.Canceled) {
			t.Errorf("follower Do = %v %v, want canceled", out, err)
		}
	}()
	for count("coalesced") < 1 {
		runtime.Gosched()
	}
	fcancel()
	<-followerDone

	// The flight survives the follower's departure: the leader still gets
	// the full result, computed under a live context.
	close(release)
	<-leaderDone
	if got := computeCtxErr.Load(); got != "<nil>" {
		t.Fatalf("compute context errored %v although a waiter remained", got)
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatalf("result not cached after follower cancel: %v %v", v, ok)
	}
	if count("canceled") != 1 || count("coalesced") != 1 || count("misses") != 1 {
		t.Fatalf("canceled/coalesced/misses = %d/%d/%d, want 1/1/1",
			count("canceled"), count("coalesced"), count("misses"))
	}
}

// TestAllWaitersGoneCancelsCompute: when the last interested caller
// disconnects, the computation's context is cancelled so the simulation
// stops burning CPU, and a later identical request starts fresh.
func TestAllWaitersGoneCancelsCompute(t *testing.T) {
	c := New[int](4, nil)
	started := make(chan struct{})
	computeStopped := make(chan error, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, out, err := c.Do(ctx, "k", func(fctx context.Context) (int, error) {
			close(started)
			<-fctx.Done() // simulate a kernel observing cancellation
			computeStopped <- fctx.Err()
			return 0, fctx.Err()
		})
		if out != Canceled || !errors.Is(err, context.Canceled) {
			t.Errorf("Do = %v %v, want canceled", out, err)
		}
	}()
	<-started
	cancel()
	<-done

	select {
	case err := <-computeStopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("compute ctx err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compute context never cancelled after last waiter left")
	}

	// The key is free again: a fresh request recomputes rather than
	// joining the dead flight.
	v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || out != Miss {
		t.Fatalf("post-cancel Do = %v %v %v, want 7 miss nil", v, out, err)
	}
}

// TestFlightContextInheritsValues: the detached computation context keeps
// request-scoped values (e.g. the request ID) even though it outlives the
// request's cancellation.
func TestFlightContextInheritsValues(t *testing.T) {
	type key struct{}
	c := New[string](4, nil)
	ctx := context.WithValue(context.Background(), key{}, "req-7")
	v, _, err := c.Do(ctx, "k", func(fctx context.Context) (string, error) {
		got, _ := fctx.Value(key{}).(string)
		return got, nil
	})
	if err != nil || v != "req-7" {
		t.Fatalf("flight ctx value = %q %v, want req-7", v, err)
	}
}
