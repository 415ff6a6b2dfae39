package broker

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/metrics"
)

// oraclePlacer places on the first instance below its session capacity,
// and on a seeded share of calls reports no capacity at all.
type oraclePlacer struct {
	rng      *rand.Rand
	insts    []*cloud.Instance
	capacity int
}

func (p *oraclePlacer) PlaceNow(string) *cloud.Instance {
	if p.rng.Intn(4) == 0 {
		return nil
	}
	for _, in := range p.insts {
		if in.Sessions() < p.capacity {
			return in
		}
	}
	return nil
}

// seriesValues reads the named series from one registry snapshot.
func seriesValues(t *testing.T, reg *metrics.Registry, ids ...string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(ids))
	for _, m := range reg.Snapshot().Metrics {
		if id := m.SeriesID(); slices.Contains(ids, id) {
			out[id] = m.Value
		}
	}
	for _, id := range ids {
		if _, ok := out[id]; !ok {
			t.Fatalf("series %s not registered", id)
		}
	}
	return out
}

// TestBookkeepingOracle drives a seeded random mix of every session
// operation over three small instances and, after each step, recounts
// the live sessions from Sessions() and checks every other view of the
// same state against that recount: the O(1) counts, the per-instance
// index, the instances' own slot counts and the registered gauges. A
// Pending session with an activation time has lost its instance, so the
// recount derives "suspended" from the snapshots alone.
func TestBookkeepingOracle(t *testing.T) {
	const steps = 2000
	clk := clock.NewSimulated(epoch)
	reg := metrics.NewRegistry(clk)
	b, err := New(clk, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	prov, err := cloud.NewProvider(cloud.Config{
		Name: "oracle", Kind: cloud.Private, MaxInstances: 3,
		BootDelay: time.Second, AddrPrefix: "10.1.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	rng := rand.New(rand.NewSource(20))
	placer := &oraclePlacer{rng: rng, capacity: 2}
	for i := 0; i < 3; i++ {
		inst, err := prov.Launch(cloud.Image{ID: "img", Kind: cloud.Streamlined, Services: []string{"topmodel"}}, cloud.DefaultFlavor())
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		placer.insts = append(placer.insts, inst)
	}
	clk.Advance(2 * time.Second)
	b.SetPlacer(placer)

	var ids []string          // every ID ever issued
	live := map[string]bool{} // the model's live set
	// pick mostly targets recent IDs, so the live set stays small and
	// operations keep hitting live sessions; the rest go to any ID ever
	// issued (usually closed) or to one never issued.
	pick := func() string {
		switch {
		case len(ids) == 0 || rng.Intn(20) == 0:
			return "s-unknown"
		case rng.Intn(4) == 0:
			return ids[rng.Intn(len(ids))]
		default:
			return ids[len(ids)-1-rng.Intn(min(len(ids), 16))]
		}
	}
	// tolerate accepts success, or ErrNoSession for a non-live ID.
	tolerate := func(step int, op, id string, err error) {
		t.Helper()
		if err == nil || (errors.Is(err, ErrNoSession) && !live[id]) {
			return
		}
		t.Fatalf("step %d: %s(%s): %v", step, op, id, err)
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(6); op {
		case 0:
			s, err := b.Connect("u", "topmodel")
			if err != nil {
				t.Fatalf("step %d: Connect: %v", step, err)
			}
			ids = append(ids, s.ID)
			live[s.ID] = true
		case 1:
			id := pick()
			_, err := b.Subscribe(id)
			if err != nil && live[id] {
				t.Fatalf("step %d: Subscribe(%s): %v", step, id, err)
			}
		case 2:
			id := pick()
			tolerate(step, "Migrate", id, b.Migrate(id, placer.insts[rng.Intn(len(placer.insts))], "oracle"))
		case 3:
			id := pick()
			tolerate(step, "Suspend", id, b.Suspend(id, "oracle"))
		case 4:
			id := pick()
			err := b.Disconnect(id)
			if err == nil {
				delete(live, id)
			}
			tolerate(step, "Disconnect", id, err)
		case 5:
			b.AssignPending()
		}

		all := b.Sessions()
		var pending, suspended int
		on := map[string][]string{}
		seen := map[string]bool{}
		for _, s := range all {
			seen[s.ID] = true
			switch s.State {
			case Pending:
				pending++
				if !s.ActivatedAt.IsZero() {
					suspended++
				}
				if s.InstanceID != "" {
					t.Fatalf("step %d: pending %s names instance %s", step, s.ID, s.InstanceID)
				}
			case Active:
				on[s.InstanceID] = append(on[s.InstanceID], s.ID)
			default:
				t.Fatalf("step %d: Sessions() holds %s in state %v", step, s.ID, s.State)
			}
		}
		if len(seen) != len(live) {
			t.Fatalf("step %d: Sessions() = %d live, model has %d", step, len(seen), len(live))
		}
		for id := range live {
			if !seen[id] {
				t.Fatalf("step %d: live session %s missing from Sessions()", step, id)
			}
		}
		active := len(all) - pending
		const (
			gaugeActive    = `evop_sessions{state="active"}`
			gaugePending   = `evop_sessions{state="pending"}`
			gaugeSuspended = "evop_broker_sessions_suspended"
		)
		gauges := seriesValues(t, reg, gaugeActive, gaugePending, gaugeSuspended)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"PendingCount", float64(b.PendingCount()), float64(pending)},
			{"SuspendedCount", float64(b.SuspendedCount()), float64(suspended)},
			{"LiveCount", float64(b.LiveCount()), float64(len(all))},
			{gaugeActive, gauges[gaugeActive], float64(active)},
			{gaugePending, gauges[gaugePending], float64(pending)},
			{gaugeSuspended, gauges[gaugeSuspended], float64(suspended)},
		} {
			if c.got != c.want {
				t.Fatalf("step %d: %s = %v, recount %v", step, c.name, c.got, c.want)
			}
		}
		bound := 0
		for _, inst := range placer.insts {
			want := on[inst.ID()]
			bound += len(want)
			var got []string
			for _, s := range b.SessionsOn(inst.ID()) {
				got = append(got, s.ID)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: SessionsOn(%s) = %v, recount %v", step, inst.ID(), got, want)
			}
			if inst.Sessions() != len(want) {
				t.Fatalf("step %d: %s holds %d slots, recount %d", step, inst.ID(), inst.Sessions(), len(want))
			}
		}
		if bound != active {
			t.Fatalf("step %d: %d active sessions name an unknown instance", step, active-bound)
		}
	}
}
