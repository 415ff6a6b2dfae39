package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

var testStart = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

// newTestController builds a controller on a simulated clock whose
// adaptive limit starts at limit.
func newTestController(limit float64) (*Controller, *clock.Simulated) {
	clk := clock.NewSimulated(testStart)
	c := New(clk, nil)
	c.limit = limit
	return c, clk
}

// setTokens sets client's bucket to n tokens, creating it first.
func (c *Controller) setTokens(t *testing.T, client string, n float64) {
	t.Helper()
	if _, err := c.AllowRate(Live, client); err != nil {
		t.Fatalf("AllowRate(%s): %v", client, err)
	}
	c.mu.Lock()
	c.byClient[client].Value.(*bucket).tokens = n
	c.mu.Unlock()
}

// Adapt forces one AIMD step now. Tests use it to drive convergence
// without arranging traffic.
func (c *Controller) Adapt() {
	c.mu.Lock()
	c.lastAdapt = c.clk.Now()
	c.adaptLocked()
	c.mu.Unlock()
}

// Limit returns the current adaptive concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.limit)
}

func TestTokenBucketRefill(t *testing.T) {
	c, clk := newTestController(initialLimit)
	// Two tokens left of alice's burst.
	c.setTokens(t, "alice", 2)
	for i := 0; i < 2; i++ {
		if _, err := c.AllowRate(Live, "alice"); err != nil {
			t.Fatalf("request %d within the tokens left: %v", i, err)
		}
	}
	retry, err := c.AllowRate(Live, "alice")
	if err != ErrRateLimited {
		t.Fatalf("exhausted bucket: err = %v, want ErrRateLimited", err)
	}
	// One token refills in 1/ratePerSecond.
	perToken := time.Second / ratePerSecond
	if retry <= 0 || retry > perToken {
		t.Fatalf("retry hint = %v, want in (0, %v]", retry, perToken)
	}
	// A different client has its own bucket.
	if _, err := c.AllowRate(Live, "bob"); err != nil {
		t.Fatalf("independent client: %v", err)
	}
	clk.Advance(perToken)
	if _, err := c.AllowRate(Live, "alice"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if _, err := c.AllowRate(Live, "alice"); err != ErrRateLimited {
		t.Fatalf("token already spent: err = %v, want ErrRateLimited", err)
	}
	// Idle time never accrues past the burst.
	clk.Advance(time.Hour)
	for i := 0; i < burst; i++ {
		if _, err := c.AllowRate(Live, "alice"); err != nil {
			t.Fatalf("burst after idle, request %d: %v", i, err)
		}
	}
	if _, err := c.AllowRate(Live, "alice"); err != ErrRateLimited {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestClientTableLRUBound sends one client past the bound: the least
// recently seen client is evicted, and a client seen again is not.
func TestClientTableLRUBound(t *testing.T) {
	c, _ := newTestController(initialLimit)
	id := func(i int) string { return fmt.Sprintf("c%d", i) }
	for i := 0; i < maxClients; i++ {
		if _, err := c.AllowRate(Live, id(i)); err != nil {
			t.Fatalf("AllowRate(%s): %v", id(i), err)
		}
	}
	// c0 is seen again, so c1 is now the least recently seen.
	for _, i := range []int{0, maxClients} {
		if _, err := c.AllowRate(Live, id(i)); err != nil {
			t.Fatalf("AllowRate(%s): %v", id(i), err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() != maxClients {
		t.Fatalf("client table size = %d, want %d", c.lru.Len(), maxClients)
	}
	if _, ok := c.byClient[id(1)]; ok {
		t.Fatal("least-recently-seen client not evicted")
	}
	for _, i := range []int{0, 2, maxClients - 1, maxClients} {
		if _, ok := c.byClient[id(i)]; !ok {
			t.Fatalf("client %q missing from table", id(i))
		}
	}
}

// TestShedOrderingDeterministic fills the gate synchronously and checks
// the class ceilings produce strictly ordered shedding: bulk exhausts
// first, then model, then live, while ingest admits into the reserve.
func TestShedOrderingDeterministic(t *testing.T) {
	c, _ := newTestController(20)
	// Ceilings at limit 20: ingest 20, live 17, model 14, bulk 10.
	for i := 0; i < 17; i++ {
		if _, err := c.TryAdmit(Live, "crowd"); err != nil {
			t.Fatalf("live admit %d: %v", i, err)
		}
	}
	if _, err := c.TryAdmit(Live, "crowd"); err != ErrSaturated {
		t.Fatalf("live past ceiling: err = %v, want ErrSaturated", err)
	}
	if _, err := c.TryAdmit(Model, "crowd"); err != ErrSaturated {
		t.Fatalf("model under live load: err = %v, want ErrSaturated", err)
	}
	if _, err := c.TryAdmit(Bulk, "crowd"); err != ErrSaturated {
		t.Fatalf("bulk under live load: err = %v, want ErrSaturated", err)
	}
	// Ingest alone may use the reserve above the live ceiling.
	for i := 0; i < 3; i++ {
		if _, err := c.TryAdmit(Ingest, "station"); err != nil {
			t.Fatalf("ingest into reserve %d: %v", i, err)
		}
	}
	if _, err := c.TryAdmit(Ingest, "station"); err != ErrSaturated {
		t.Fatalf("ingest past full limit: err = %v, want ErrSaturated", err)
	}
	for i := 0; i < 17; i++ {
		c.Release(Live)
	}
	for i := 0; i < 3; i++ {
		c.Release(Ingest)
	}
	if got := c.total; got != 0 {
		t.Fatalf("in flight after release = %d, want 0", got)
	}
	if ing, live := c.admitted[Ingest].Value(), c.admitted[Live].Value(); ing != 3 || live != 17 {
		t.Fatalf("admitted ingest/live = %d/%d, want 3/17", ing, live)
	}
}

func TestQueuePromotionOnRelease(t *testing.T) {
	c, clk := newTestController(1) // ingest ceiling: 1 slot
	if _, err := c.TryAdmit(Ingest, "a"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Ingest, "b")
		done <- err
	}()
	waitFor(t, func() bool { return c.queueDepth[Ingest].Value() == 1 })
	c.Release(Ingest)
	if err := <-done; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	// The waiter granted before its queue timeout leaves no timer behind.
	if got := clk.PendingTimers(); got != 0 {
		t.Fatalf("pending timers after grant = %d, want 0", got)
	}
	if got := c.total; got != 1 {
		t.Fatalf("in flight = %d, want 1 (promoted waiter holds it)", got)
	}
	c.Release(Ingest)
}

func TestQueueTimeoutSheds(t *testing.T) {
	c, clk := newTestController(2) // live ceiling: 1 slot
	if _, err := c.TryAdmit(Live, "a"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Live, "b")
		done <- err
	}()
	// Wait until the waiter has armed its timeout timer, then fire it.
	waitFor(t, func() bool { return clk.PendingTimers() >= 1 })
	clk.Advance(queueTimeout - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("wait ended before the queue timeout: %v", err)
	default:
	}
	clk.Advance(time.Nanosecond)
	if err := <-done; err != ErrSaturated {
		t.Fatalf("timed-out wait: err = %v, want ErrSaturated", err)
	}
	if got := c.shed[Live][reasonTimeout].Value(); got != 1 {
		t.Fatalf("timeout sheds = %d, want 1", got)
	}
	c.Release(Live)
	if got := c.total; got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

func TestQueueHonorsContext(t *testing.T) {
	c, _ := newTestController(2) // model ceiling: 1 slot
	if _, err := c.TryAdmit(Model, "a"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Model, "b")
		done <- err
	}()
	waitFor(t, func() bool { return c.queueDepth[Model].Value() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled wait: err = %v, want context.Canceled", err)
	}
	// A context already dead on arrival never queues.
	if _, err := c.Admit(ctx, Model, "b"); err != context.Canceled {
		t.Fatalf("dead-on-arrival: err = %v, want context.Canceled", err)
	}
	c.Release(Model)
	if got := c.total; got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c, _ := newTestController(2) // live ceiling: 1 slot
	if _, err := c.TryAdmit(Live, "a"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	granted := make(chan error, queueLimit)
	for i := 0; i < queueLimit; i++ {
		go func() {
			_, err := c.Admit(context.Background(), Live, "b")
			granted <- err
		}()
	}
	waitFor(t, func() bool { return c.queueDepth[Live].Value() == queueLimit })
	if _, err := c.Admit(context.Background(), Live, "c"); err != ErrSaturated {
		t.Fatalf("queue full: err = %v, want ErrSaturated", err)
	}
	if got := c.shed[Live][reasonCapacity].Value(); got != 1 {
		t.Fatalf("capacity sheds = %d, want 1", got)
	}
	// Each release promotes the next waiter, which then holds the slot.
	for i := 0; i < queueLimit; i++ {
		c.Release(Live)
		if err := <-granted; err != nil {
			t.Fatalf("queued admit %d: %v", i, err)
		}
	}
	c.Release(Live)
	if got := c.total; got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

// TestAIMDAdaptation drives the limit with synthetic latency: sustained
// p95 above target collapses it to the floor; healthy intervals climb it
// to the ceiling; idle intervals leave it alone.
func TestAIMDAdaptation(t *testing.T) {
	c, _ := newTestController(initialLimit)
	h := metrics.NewHistogram(metrics.DurationScale)
	c.Watch(h)
	record := func(d time.Duration) {
		for j := 0; j < 50; j++ {
			h.RecordDuration(d)
		}
	}

	// No traffic: the limit must not drift.
	c.Adapt()
	if got := c.Limit(); got != initialLimit {
		t.Fatalf("idle adapt moved limit to %d, want %d", got, initialLimit)
	}
	// Breach: each round multiplies by decreaseFactor, clamped at the
	// floor: 64 → 44.8 → 31.36 → ... → 4 at round 8, then held there.
	want := float64(initialLimit)
	for i := 0; i < 10; i++ {
		record(2 * targetP95)
		c.Adapt()
		want = max(want*decreaseFactor, minLimit)
		if got := c.Limit(); got != int(want) {
			t.Fatalf("breach round %d: limit = %d, want %d", i, got, int(want))
		}
	}
	if want != minLimit {
		t.Fatalf("breach ended at %v, want the floor %d", want, minLimit)
	}
	// Recovery: +increaseStep per healthy interval up to the ceiling,
	// reached at round 255, then held there.
	for i := 0; i < 260; i++ {
		record(targetP95 / 10)
		c.Adapt()
		want = min(want+increaseStep, maxLimit)
		if got := c.Limit(); got != int(want) {
			t.Fatalf("recovery round %d: limit = %d, want %d", i, got, int(want))
		}
	}
	if want != maxLimit {
		t.Fatalf("recovery ended at %v, want the ceiling %d", want, maxLimit)
	}
}

// TestAdaptRidesAdmitPath checks the lazy adaptation trigger: an admit
// after adaptEvery has elapsed runs the AIMD step without any background
// goroutine.
func TestAdaptRidesAdmitPath(t *testing.T) {
	c, clk := newTestController(initialLimit)
	h := metrics.NewHistogram(metrics.DurationScale)
	c.Watch(h)
	for j := 0; j < 50; j++ {
		h.RecordDuration(2 * targetP95)
	}
	if _, err := c.TryAdmit(Live, "a"); err != nil {
		t.Fatal(err)
	}
	c.Release(Live)
	if got := c.Limit(); got != initialLimit {
		t.Fatalf("adapted before adaptEvery: limit = %d", got)
	}
	clk.Advance(adaptEvery)
	if _, err := c.TryAdmit(Live, "a"); err != nil {
		t.Fatal(err)
	}
	c.Release(Live)
	if got, want := c.limit, float64(initialLimit*decreaseFactor); got != want {
		t.Fatalf("limit after elapsed interval = %v, want %v", got, want)
	}
}

// splitmix64 is the storm test's seeded PRNG — deterministic across
// runs and platforms.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestChaosFlashCrowdStorm is the overload storm: a seeded burst of
// mixed-class requests against a deterministic clock. Phase 1 pins shed
// ordering by priority and that ingest is never starved; phase 2 pins
// AIMD convergence under a latency breach and recovery; phase 3 hammers
// the gate from concurrent goroutines (race-clean by construction, and
// every slot must come home).
func TestChaosFlashCrowdStorm(t *testing.T) {
	// Phase 1: seeded synchronous storm, no releases — the crowd piles
	// up and the classes must saturate strictly in reverse priority.
	c, _ := newTestController(20)
	seed := uint64(42)
	// Ceilings at limit 20, by class.
	ceiling := [NumClasses]int{Ingest: 20, Live: 17, Model: 14, Bulk: 10}
	held := map[Class]int{}
	shedSeen := [NumClasses]bool{}
	admitsAfterShed := [NumClasses]int{} // admits of cl after bulk began shedding
	for op := 0; op < 200; op++ {
		r := splitmix64(&seed)
		cl := Class(r % NumClasses)
		client := fmt.Sprintf("c%d", (r>>8)%16)
		before := c.total
		if _, err := c.TryAdmit(cl, client); err != nil {
			// A shed is only legitimate at or above the class ceiling.
			if before < ceiling[cl] {
				t.Fatalf("op %d: class %v shed at occupancy %d below its ceiling %d", op, cl, before, ceiling[cl])
			}
			shedSeen[cl] = true
		} else {
			if before >= ceiling[cl] {
				t.Fatalf("op %d: class %v admitted at occupancy %d despite ceiling %d", op, cl, before, ceiling[cl])
			}
			if shedSeen[Bulk] {
				admitsAfterShed[cl]++
			}
			held[cl]++
		}
	}
	for _, cl := range []Class{Bulk, Model, Live} {
		if !shedSeen[cl] {
			t.Fatalf("storm never saturated class %v", cl)
		}
	}
	// Ordered shedding, observed: live kept admitting after bulk began
	// shedding. (The ceiling checks above already prove the general
	// ordering — any admit above a class ceiling or shed below one
	// fails the test — and that ingest only ever sheds at the full
	// limit, i.e. is never starved while a slot remains.)
	if admitsAfterShed[Live] == 0 {
		t.Fatal("live admitted nothing after bulk began shedding")
	}
	for cl, n := range held {
		for i := 0; i < n; i++ {
			c.Release(cl)
		}
	}
	if got := c.total; got != 0 {
		t.Fatalf("phase 1 in flight = %d, want 0", got)
	}

	// Phase 2: AIMD convergence. A latency breach collapses the limit to
	// the floor; recovery climbs back to the ceiling.
	c2, _ := newTestController(initialLimit)
	h := metrics.NewHistogram(metrics.DurationScale)
	c2.Watch(h)
	for round := 0; round < 10; round++ {
		for j := 0; j < 40; j++ {
			h.RecordDuration(4 * targetP95)
		}
		c2.Adapt()
	}
	if got := c2.Limit(); got != minLimit {
		t.Fatalf("limit under sustained breach = %d, want floor %d", got, minLimit)
	}
	for round := 0; round < (maxLimit-minLimit)/increaseStep+5; round++ {
		for j := 0; j < 40; j++ {
			h.RecordDuration(time.Millisecond)
		}
		c2.Adapt()
	}
	if got := c2.Limit(); got != maxLimit {
		t.Fatalf("limit after recovery = %d, want ceiling %d", got, maxLimit)
	}

	// Phase 3: concurrent hammer. Every goroutine draws classes from its
	// own seeded stream; admits queue and promote across classes. The
	// race detector owns the memory-safety half of the assertion.
	c3, _ := newTestController(8)
	const goroutines, iters = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			state := uint64(1000 + g)
			client := fmt.Sprintf("g%d", g)
			for i := 0; i < iters; i++ {
				cl := Class(splitmix64(&state) % NumClasses)
				if _, err := c3.Admit(context.Background(), cl, client); err == nil {
					c3.Release(cl)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c3.total; got != 0 {
		t.Fatalf("phase 3 in flight = %d, want 0", got)
	}
	for cl := Class(0); cl < NumClasses; cl++ {
		if d := c3.queueDepth[cl].Value(); d != 0 {
			t.Fatalf("class %v queue depth = %d after storm, want 0", cl, d)
		}
	}
	var admitted uint64
	for cl := Class(0); cl < NumClasses; cl++ {
		admitted += c3.admitted[cl].Value()
	}
	if admitted == 0 {
		t.Fatal("storm admitted nothing")
	}
}

// TestAdmitHotPathAllocs pins the steady-state admit/release path at
// zero allocations per operation.
func TestAdmitHotPathAllocs(t *testing.T) {
	c, _ := newTestController(initialLimit)
	ctx := context.Background()
	// Warm the client's bucket so steady state is measured.
	if _, err := c.Admit(ctx, Live, "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	c.Release(Live)
	got := testing.AllocsPerRun(1000, func() {
		if _, err := c.Admit(ctx, Live, "10.0.0.1"); err != nil {
			t.Fatal(err)
		}
		c.Release(Live)
	})
	if got != 0 {
		t.Fatalf("admit/release allocates %.1f per op, want 0", got)
	}
}

// waitFor polls until cond holds (the storm of goroutines involved has
// no other synchronization edge to wait on).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
