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

func TestSimulatedAfterFiresInOrder(t *testing.T) {
	c := NewSimulated(epoch)
	ch2 := c.After(2 * time.Hour)
	ch1 := c.After(1 * time.Hour)
	c.Advance(3 * time.Hour)

	at1 := <-ch1
	at2 := <-ch2
	if want := epoch.Add(time.Hour); !at1.Equal(want) {
		t.Errorf("first timer fired at %v, want %v", at1, want)
	}
	if want := epoch.Add(2 * time.Hour); !at2.Equal(want) {
		t.Errorf("second timer fired at %v, want %v", at2, want)
	}
}

func TestSimulatedAfterZeroFiresImmediately(t *testing.T) {
	c := NewSimulated(epoch)
	select {
	case at := <-c.After(0):
		if !at.Equal(epoch) {
			t.Errorf("fired at %v, want %v", at, epoch)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
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
	c.Advance(10 * time.Minute)

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

func TestSimulatedSleepUnblocksOnAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Minute)
		close(done)
	}()
	// Wait for the sleeper to register its timer.
	for i := 0; c.PendingTimers() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

func TestSimulatedPendingTimers(t *testing.T) {
	c := NewSimulated(epoch)
	c.After(time.Hour)
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
	stop()
	c.Sleep(time.Millisecond)
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("Real.After never fired")
	}
}
