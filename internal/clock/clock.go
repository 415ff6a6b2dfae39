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
// Simulated implement it.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// AfterFunc schedules f to run once d has elapsed: on Real in its own
	// goroutine, on Simulated on the goroutine calling Advance. The
	// returned stop function cancels the timer if it has not yet fired
	// and reports whether it was stopped before firing.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock backed by the system wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	t := time.AfterFunc(d, f)
	return t.Stop
}

// timer is a pending event on a Simulated clock.
type timer struct {
	at  time.Time
	seq uint64 // tie-break so equal timestamps fire FIFO
	ch  chan time.Time
	fn  func()
	// stopped marks a cancelled AfterFunc timer; it is skipped when due.
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
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	timers  timerHeap
	waiters []chan struct{} // goroutines blocked in Sleep
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

// After implements Clock. The channel has capacity 1 so firing never blocks
// the Advance loop.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.seq++
	heap.Push(&s.timers, &timer{at: s.now.Add(d), seq: s.seq, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (s *Simulated) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// AfterFunc implements Clock. The callback runs on the goroutine calling
// Advance, with the clock unlocked, so it may schedule timers (which
// fire in the same Advance when due inside its window) or call Advance
// itself.
func (s *Simulated) AfterFunc(d time.Duration, f func()) func() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &timer{fn: f}
	if d <= 0 {
		t.at = s.now
	} else {
		t.at = s.now.Add(d)
	}
	s.seq++
	t.seq = s.seq
	heap.Push(&s.timers, t)
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if t.stopped {
			return false
		}
		t.stopped = true
		return true
	}
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
		if tm.at.After(s.now) {
			s.now = tm.at
		}
		now := s.now
		stopped := tm.stopped
		s.mu.Unlock()
		if stopped {
			continue
		}
		if tm.ch != nil {
			tm.ch <- now
		}
		if tm.fn != nil {
			tm.fn()
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
