package resilience

import (
	"errors"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

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
