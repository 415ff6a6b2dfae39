// Package clock provides an abstraction over wall-clock time so that every
// time-dependent component in EVOp (instance boot latency, sensor emission,
// health monitoring, session timeouts) can run either against the real clock
// or against a deterministic simulated clock in tests and experiments.
//
// The simulated clock is a discrete-event scheduler: timers fire in
// timestamp order when the owner advances time explicitly, which makes
// infrastructure experiments (cloudbursting, malfunction detection, flash
// crowds) exactly reproducible.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used across EVOp. Both Real and
// Simulated implement it. Its timers are callbacks only: a blocking
// wait on Simulated would deadlock the goroutine calling Advance.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed: on Real in its own
	// goroutine, on Simulated on the goroutine calling Advance. The
	// returned stop function cancels the timer if it has not yet fired
	// and reports whether it was stopped before firing.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	// Every runs f every d until stopped, each run timed from when the
	// previous one returned (fixed delay, so runs never overlap). The
	// returned stop function prevents any later run and reports true the
	// first time it is called; a run already in flight completes. Every
	// panics if d <= 0, like time.NewTicker.
	Every(d time.Duration, f func()) (stop func() bool)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock backed by the system wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Every implements Clock with one runtime timer, Reset after each run
// under a mutex that stop also takes, so a stopped timer stays stopped.
func (Real) Every(d time.Duration, f func()) func() bool {
	if d <= 0 {
		panic("clock: non-positive interval for Every")
	}
	var mu sync.Mutex
	stopped := false
	var t *time.Timer
	mu.Lock() // until t is set: a short d may run f and reach Reset first
	defer mu.Unlock()
	t = time.AfterFunc(d, func() {
		f()
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			t.Reset(d)
		}
	})
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		t.Stop()
		was := stopped
		stopped = true
		return !was
	}
}

// timer is a pending event on a Simulated clock.
type timer struct {
	at  time.Time
	seq uint64 // tie-break so equal timestamps fire FIFO
	fn  func()
	// every is an Every timer's period, 0 for a one-shot.
	every time.Duration
	// stopped marks a cancelled timer, or a fired one-shot; it is
	// skipped when due and never pushed again.
	stopped bool
}

// timerHeap orders timers by (at, seq).
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*timer)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Simulated is a deterministic Clock whose time only moves when Advance
// (or AdvanceTo) is called. Timers fire synchronously, in timestamp order,
// from inside Advance. It is safe for concurrent use.
type Simulated struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
}

var _ Clock = (*Simulated)(nil)

// NewSimulated returns a Simulated clock whose time starts at start.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{now: start}
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Clock. The callback runs on the goroutine calling
// Advance, with the clock unlocked, so it may schedule timers (which
// fire in the same Advance when due inside its window) or call Advance
// itself.
func (s *Simulated) AfterFunc(d time.Duration, f func()) func() bool {
	return s.start(&timer{fn: f}, d)
}

// Every implements Clock. Its one timer entry is scheduled again after
// each run of f, so it takes its tie-break seq when f returns, exactly
// like an AfterFunc re-armed at the end of f.
func (s *Simulated) Every(d time.Duration, f func()) func() bool {
	if d <= 0 {
		panic("clock: non-positive interval for Every")
	}
	return s.start(&timer{fn: f, every: d}, d)
}

// start schedules a new timer and returns its stop function.
func (s *Simulated) start(t *timer, d time.Duration) func() bool {
	s.schedule(t, d)
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		was := t.stopped
		t.stopped = true
		return !was
	}
}

// schedule pushes t, unless stopped, to fire d from now (now if d <= 0)
// after every timer already due then.
func (s *Simulated) schedule(t *timer, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.stopped {
		return
	}
	s.seq++
	t.at, t.seq = s.now.Add(max(d, 0)), s.seq
	heap.Push(&s.timers, t)
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls within the window, in order.
func (s *Simulated) Advance(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves simulated time forward to t (no-op if t is not after the
// current time), firing due timers in timestamp order. Time is stepped to
// each timer's deadline before the timer fires, so callbacks observe a
// consistent Now.
func (s *Simulated) AdvanceTo(t time.Time) {
	for {
		s.mu.Lock()
		if len(s.timers) == 0 || s.timers[0].at.After(t) {
			if t.After(s.now) {
				s.now = t
			}
			s.mu.Unlock()
			return
		}
		tm := heap.Pop(&s.timers).(*timer)
		s.now = tm.at // never before now: schedule clamps d at 0
		stopped := tm.stopped
		tm.stopped = stopped || tm.every == 0
		s.mu.Unlock()
		if stopped {
			continue
		}
		tm.fn()
		if tm.every > 0 {
			s.schedule(tm, tm.every)
		}
	}
}

// PendingTimers reports how many timers are scheduled and not yet fired.
// Useful for test assertions that background loops shut down cleanly.
func (s *Simulated) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}
