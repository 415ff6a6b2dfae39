package clock

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	c.Advance(90 * time.Minute)
	if got, want := c.Now(), epoch.Add(90*time.Minute); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestSimulatedAdvanceToPastIsNoop(t *testing.T) {
	c := NewSimulated(epoch)
	c.AdvanceTo(epoch.Add(-time.Hour))
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want unchanged %v", got, epoch)
	}
}

func TestSimulatedAfterFuncOrderAndStop(t *testing.T) {
	c := NewSimulated(epoch)
	var mu sync.Mutex
	var order []string
	add := func(name string) func() {
		return func() {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, name)
		}
	}
	c.AfterFunc(2*time.Minute, add("b"))
	c.AfterFunc(1*time.Minute, add("a"))
	stop := c.AfterFunc(3*time.Minute, add("cancelled"))
	if !stop() {
		t.Fatal("stop() = false, want true before firing")
	}
	if stop() {
		t.Fatal("second stop() = true, want false")
	}
	fired := c.AfterFunc(4*time.Minute, func() {})
	c.Advance(10 * time.Minute)
	if fired() {
		t.Fatal("stop() after firing = true, want false")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("callbacks ran in order %v, want [a b]", order)
	}
}

func TestSimulatedAfterFuncSeesSteppedNow(t *testing.T) {
	c := NewSimulated(epoch)
	var seen time.Time
	done := make(chan struct{})
	c.AfterFunc(30*time.Minute, func() {
		seen = c.Now()
		close(done)
	})
	c.Advance(2 * time.Hour)
	<-done
	if want := epoch.Add(30 * time.Minute); !seen.Equal(want) {
		t.Fatalf("callback observed Now=%v, want %v", seen, want)
	}
}

// TestSimulatedAfterFuncReentrant pins what a callback may do from the
// goroutine calling Advance: a timer it schedules inside the window fires
// in the same Advance, and a nested Advance returns.
func TestSimulatedAfterFuncReentrant(t *testing.T) {
	c := NewSimulated(epoch)
	var fired []time.Duration
	mark := func() { fired = append(fired, c.Now().Sub(epoch)) }
	c.AfterFunc(time.Minute, func() {
		mark()
		c.AfterFunc(time.Minute, mark)
	})
	c.AfterFunc(5*time.Minute, func() {
		c.Advance(time.Minute)
		mark()
	})
	c.Advance(10 * time.Minute)
	want := []time.Duration{time.Minute, 2 * time.Minute, 6 * time.Minute}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("callbacks fired at %v, want %v", fired, want)
	}
	if got := c.Now(); !got.Equal(epoch.Add(10 * time.Minute)) {
		t.Fatalf("Now() = %v, want %v", got, epoch.Add(10*time.Minute))
	}
}

func TestSimulatedPendingTimers(t *testing.T) {
	c := NewSimulated(epoch)
	c.AfterFunc(time.Hour, func() {})
	stop := c.AfterFunc(time.Hour, func() {})
	if got := c.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers() = %d, want 2", got)
	}
	stop()
	if got := c.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers() after stop = %d, want 1", got)
	}
	c.Advance(2 * time.Hour)
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() after advance = %d, want 0", got)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now() = %v too far before %v", now, before)
	}
	fired := make(chan struct{})
	stop := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("Real.AfterFunc never fired")
	}
	if stop() {
		t.Fatal("stop() after firing = true, want false")
	}
	stop = c.AfterFunc(time.Hour, func() { t.Error("stopped Real.AfterFunc fired") })
	if !stop() {
		t.Fatal("stop() before firing = false, want true")
	}
}

// logEntry is one timer run in an ordering scenario.
type logEntry struct {
	label string
	at    time.Duration // since epoch
}

// rearmEvery is the periodic pattern Every replaces: a one-shot timer
// whose callback schedules the next one once f returns.
func rearmEvery(c *Simulated, d time.Duration, f func()) func() bool {
	var (
		mu      sync.Mutex
		stopped bool
		stop    func() bool
		arm     func()
	)
	arm = func() {
		stop = c.AfterFunc(d, func() {
			f()
			mu.Lock()
			defer mu.Unlock()
			if !stopped {
				arm()
			}
		})
	}
	mu.Lock()
	arm()
	mu.Unlock()
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		stopped = true
		stop()
		return true
	}
}

// orderScenario runs two periodic timers, started through every, among
// one-shot timers due at the same instants, and logs each run. P's first
// run schedules a one-shot that lands on P's own next tick, and a
// one-shot due at the instant of P's fourth run stops it first.
func orderScenario(every func(c *Simulated, d time.Duration, f func()) func() bool) []logEntry {
	c := NewSimulated(epoch)
	var log []logEntry
	mark := func(label string) func() {
		return func() { log = append(log, logEntry{label, c.Now().Sub(epoch)}) }
	}
	c.AfterFunc(10*time.Minute, mark("A"))
	runs := 0
	stopP := every(c, 10*time.Minute, func() {
		mark("P")()
		if runs++; runs == 1 {
			c.AfterFunc(10*time.Minute, mark("C"))
		}
	})
	every(c, 15*time.Minute, mark("Q"))
	c.AfterFunc(10*time.Minute, mark("B"))
	c.AfterFunc(20*time.Minute, mark("D"))
	c.AfterFunc(30*time.Minute, mark("E"))
	c.AfterFunc(40*time.Minute, func() { stopP() })
	c.Advance(time.Hour)
	return log
}

// TestEveryMatchesRearm is the ordering oracle for Every: it produces
// the same (label, time) log as the callback re-arm it replaced.
func TestEveryMatchesRearm(t *testing.T) {
	got := orderScenario(func(c *Simulated, d time.Duration, f func()) func() bool {
		return c.Every(d, f)
	})
	want := orderScenario(rearmEvery)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Every log:\n%v\nre-arm log:\n%v", got, want)
	}
	m := time.Minute
	pinned := []logEntry{
		{"A", 10 * m}, {"P", 10 * m}, {"B", 10 * m},
		{"Q", 15 * m},
		{"D", 20 * m}, {"C", 20 * m}, {"P", 20 * m},
		{"E", 30 * m}, {"Q", 30 * m}, {"P", 30 * m},
		{"Q", 45 * m}, {"Q", time.Hour},
	}
	if !reflect.DeepEqual(got, pinned) {
		t.Fatalf("Every log:\n%v\nwant:\n%v", got, pinned)
	}
}

// TestSimulatedEveryFixedDelay pins that each run is timed from when the
// previous one returned: a run that advances the clock itself pushes
// the next one back.
func TestSimulatedEveryFixedDelay(t *testing.T) {
	c := NewSimulated(epoch)
	var at []time.Duration
	c.Every(10*time.Minute, func() {
		at = append(at, c.Now().Sub(epoch))
		if len(at) == 1 {
			c.Advance(3 * time.Minute)
		}
	})
	c.Advance(30 * time.Minute)
	want := []time.Duration{10 * time.Minute, 23 * time.Minute}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("runs at %v, want %v", at, want)
	}
}

func TestSimulatedEveryStopInsideCallback(t *testing.T) {
	c := NewSimulated(epoch)
	runs := 0
	var stop func() bool
	stop = c.Every(time.Minute, func() {
		if runs++; runs == 3 && !stop() {
			t.Error("stop() inside callback = false, want true")
		}
	})
	c.Advance(10 * time.Minute)
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() = %d, want 0", got)
	}
}

func TestRealEveryStopInsideCallback(t *testing.T) {
	var mu sync.Mutex // guards stop and runs
	var stop func() bool
	runs := 0
	done := make(chan struct{})
	mu.Lock()
	stop = NewReal().Every(time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		if runs++; runs == 3 {
			if !stop() {
				t.Error("stop() inside callback = false, want true")
			}
			close(done)
		}
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.Every did not run three times")
	}
	// A run after stop would have to come within a few periods.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if runs != 3 {
		t.Fatalf("runs = %d after stop inside the third, want 3", runs)
	}
}

func TestEveryStopReportsOnce(t *testing.T) {
	for name, c := range map[string]Clock{"simulated": NewSimulated(epoch), "real": NewReal()} {
		stop := c.Every(time.Hour, func() { t.Errorf("%s: stopped Every ran", name) })
		if !stop() {
			t.Errorf("%s: first stop() = false, want true", name)
		}
		if stop() {
			t.Errorf("%s: second stop() = true, want false", name)
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	sim := NewSimulated(epoch)
	for name, c := range map[string]Clock{"simulated": sim, "real": NewReal()} {
		for _, d := range []time.Duration{0, -time.Second} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Every(%v) did not panic", name, d)
					}
				}()
				c.Every(d, func() {})
			}()
		}
	}
	if got := sim.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() = %d after refused Every, want 0", got)
	}
}
