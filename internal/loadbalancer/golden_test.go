package loadbalancer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"evop/internal/cloud"
)

// actionSeries prefixes the evop_lb_actions_total series. They postdate
// the recorded digests, so chaosDigest leaves them out and
// checkActionCounts holds them to the event log instead.
const actionSeries = "evop_lb_actions_total{"

// chaosDigest hashes the chaos scenario's full outcome: the session and
// victim IDs, the event log with timestamps, every registry series but
// the action counters in ID order, both fault streams, and each
// provider's accrued cost and live instance count.
func chaosDigest(h *faultyHarness, out chaosOutcome) string {
	sum := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		sum.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	putS := func(s string) {
		putU(uint64(len(s)))
		sum.Write([]byte(s))
	}
	putU(uint64(len(out.sessions)))
	for _, id := range out.sessions {
		putS(id)
	}
	putS(out.victimID)
	putU(uint64(len(out.events)))
	for _, e := range out.events {
		putU(uint64(e.At.UnixNano()))
		putS(e.Action)
		putS(e.Detail)
	}
	ids := make([]string, 0, len(out.series))
	for id := range out.series {
		if !strings.HasPrefix(id, actionSeries) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	putU(uint64(len(ids)))
	for _, id := range ids {
		putS(id)
		putF(out.series[id])
	}
	putS(fmt.Sprintf("%+v", out.privFaults))
	putS(fmt.Sprintf("%+v", out.pubFaults))
	for _, p := range []*cloud.SimProvider{h.private, h.public} {
		putS(p.Name())
		putF(p.CostAccrued())
		putU(uint64(len(p.Instances())))
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// checkActionCounts requires each evop_lb_actions_total series to equal
// the number of logged events with that action, and every logged action
// to have a series: the log still holds every event of the scenario.
func checkActionCounts(t *testing.T, out chaosOutcome) {
	t.Helper()
	total := 0.0
	for _, name := range actionNames {
		got := out.series[actionSeries+`action="`+name+`"}`]
		if want := countEvents(out.events, name, ""); got != float64(want) {
			t.Errorf("evop_lb_actions_total{action=%q} = %v, want %d logged events", name, got, want)
		}
		total += got
	}
	if total != float64(len(out.events)) {
		t.Errorf("action counters sum to %v, want %d logged events", total, len(out.events))
	}
}

// TestChaosScenarioGolden pins the chaos scenario's whole outcome — every
// LB decision and its time, every counter, both fault streams, each
// provider's cost and instance count — to digests recorded before the
// providers published their instance lists copy-on-write. A drain
// follows the storm, so idle reclaim on both clouds and the move back
// to private capacity are pinned too.
func TestChaosScenarioGolden(t *testing.T) {
	const (
		wantStorm = "5706b96466f27fefddc9440d749c969658ac4f8653b5f6c65cd6532791fd6e9b"
		wantDrain = "723df66c123ec42d58753f29e7e9d0fd4c02fc58ed4956e15eb7c707f66f3f15"
	)
	h, out := runChaosScenario(t)
	checkActionCounts(t, out)
	if got := chaosDigest(h, out); got != wantStorm {
		t.Errorf("storm outcome digest %s, want %s", got, wantStorm)
	}

	// Everyone but the late user (the fourth to connect) leaves, a few
	// at a time.
	for i, id := range out.sessions {
		if i == 3 {
			continue
		}
		if err := h.brk.Disconnect(id); err != nil {
			t.Fatalf("Disconnect %s: %v", id, err)
		}
		if i%3 == 2 {
			h.settle(1)
		}
	}
	h.settle(12)
	out.events = h.lb.Events()
	out.series = h.series()
	out.privFaults = h.fpriv.Stats()
	out.pubFaults = h.fpub.Stats()
	if countEvents(out.events, "terminate", "idle public") == 0 {
		t.Fatal("the drain reclaimed no public instance")
	}
	checkActionCounts(t, out)
	if got := chaosDigest(h, out); got != wantDrain {
		t.Errorf("drain outcome digest %s, want %s", got, wantDrain)
	}
}
