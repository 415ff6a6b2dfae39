package resilience

import (
	"errors"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: time.Second, Max: 10 * time.Second, Factor: 2}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		10 * time.Second, 10 * time.Second,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
	if got := b.Delay(-5); got != time.Second {
		t.Fatalf("Delay(-5) = %v, want base", got)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	if got := b.Delay(0); got != DefaultBackoffBase {
		t.Fatalf("zero-value Delay(0) = %v, want %v", got, DefaultBackoffBase)
	}
	if got := b.Delay(1000); got != DefaultBackoffMax {
		t.Fatalf("zero-value Delay(1000) = %v, want cap %v", got, DefaultBackoffMax)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Hour, Factor: 2, Jitter: 0.5, Seed: 42}
	same := Backoff{Base: time.Second, Max: time.Hour, Factor: 2, Jitter: 0.5, Seed: 42}
	other := Backoff{Base: time.Second, Max: time.Hour, Factor: 2, Jitter: 0.5, Seed: 43}
	differs := false
	for attempt := 0; attempt < 10; attempt++ {
		d := b.Delay(attempt)
		if d != same.Delay(attempt) {
			t.Fatalf("same seed diverged at attempt %d", attempt)
		}
		if d != other.Delay(attempt) {
			differs = true
		}
		nominal := float64(time.Second) * float64(int(1)<<attempt)
		lo, hi := time.Duration(nominal*0.5), time.Duration(nominal*1.5)
		if d < lo || d > hi {
			t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	if !differs {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestBreakerConfigValidation(t *testing.T) {
	if _, err := NewBreaker(BreakerConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil clock err = %v, want ErrBadConfig", err)
	}
	clk := clock.NewSimulated(epoch)
	if _, err := NewBreaker(BreakerConfig{Clock: clk, FailureThreshold: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative threshold err = %v, want ErrBadConfig", err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	reg := metrics.NewRegistry(clk)
	br, err := NewBreaker(BreakerConfig{Clock: clk, FailureThreshold: 3, OpenTimeout: time.Minute, Name: "t", Metrics: reg})
	if err != nil {
		t.Fatalf("NewBreaker: %v", err)
	}
	// Closed: calls flow; sub-threshold failures do not trip.
	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		br.Failure()
	}
	br.Success() // resets the consecutive count
	br.Failure()
	br.Failure()
	if br.State() != Closed {
		t.Fatalf("state = %v, want closed (success reset the streak)", br.State())
	}
	br.Failure() // third consecutive
	if br.State() != Open {
		t.Fatalf("state = %v, want open after threshold", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker admitted a call before the cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(time.Minute)
	if !br.Allow() {
		t.Fatal("breaker did not admit a probe after the cooldown")
	}
	if br.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", br.State())
	}
	if br.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: reopen, full cooldown again.
	br.Failure()
	if br.State() != Open {
		t.Fatalf("state = %v, want open after failed probe", br.State())
	}
	clk.Advance(30 * time.Second)
	if br.Allow() {
		t.Fatal("reopened breaker admitted a call mid-cooldown")
	}
	clk.Advance(30 * time.Second)
	if !br.Allow() {
		t.Fatal("no probe after the second cooldown")
	}
	// Probe succeeds: closed again and calls flow.
	br.Success()
	if br.State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", br.State())
	}
	if !br.Allow() {
		t.Fatal("closed breaker rejected a call after recovery")
	}

	name := metrics.L("name", "t")
	if opens := reg.Counter("evop_breaker_opens_total", "", name).Value(); opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
	if reg.Counter("evop_breaker_rejected_total", "", name).Value() == 0 {
		t.Fatal("rejected calls not counted")
	}
	for _, m := range reg.Snapshot().Metrics {
		if (m.Name == "evop_breaker_state" || m.Name == "evop_breaker_consecutive_failures") && m.Value != 0 {
			t.Fatalf("%s = %v after recovery, want 0", m.SeriesID(), m.Value)
		}
	}
}

func TestBreakerHalfOpenNeedsAllProbes(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	br, err := NewBreaker(BreakerConfig{Clock: clk, FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: 2})
	if err != nil {
		t.Fatalf("NewBreaker: %v", err)
	}
	br.Failure()
	clk.Advance(time.Second)
	if !br.Allow() {
		t.Fatal("no first probe")
	}
	br.Success()
	if br.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after 1/2 probes", br.State())
	}
	if !br.Allow() {
		t.Fatal("no second probe")
	}
	br.Success()
	if br.State() != Closed {
		t.Fatalf("state = %v, want closed after 2/2 probes", br.State())
	}
}
