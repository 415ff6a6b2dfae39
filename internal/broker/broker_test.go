package broker

import (
	"errors"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/cloud"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

// fixedPlacer returns a preset instance (or nil).
type fixedPlacer struct {
	inst *cloud.Instance
}

func (p *fixedPlacer) PlaceNow(string) *cloud.Instance { return p.inst }

func testInstance(t *testing.T, clk *clock.Simulated) *cloud.Instance {
	t.Helper()
	p, err := cloud.NewProvider(cloud.Config{
		Name: "test", Kind: cloud.Private, MaxInstances: 10,
		BootDelay: time.Second, AddrPrefix: "10.0.0.", Clock: clk,
	})
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	inst, err := p.Launch(cloud.Image{ID: "img", Kind: cloud.Streamlined, Services: []string{"topmodel"}}, cloud.DefaultFlavor())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	clk.Advance(2 * time.Second)
	return inst
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(nil, Options{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("New(nil, Options{}) err = %v", err)
	}
}

func TestConnectImmediateAssignment(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})

	s, err := b.Connect("alice", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if s.State != Active {
		t.Fatalf("state = %v, want active", s.State)
	}
	if s.InstanceAddr != inst.Addr() || s.InstanceID != inst.ID() {
		t.Fatalf("session bound to %s/%s", s.InstanceID, s.InstanceAddr)
	}
	if inst.Sessions() != 1 {
		t.Fatalf("instance sessions = %d", inst.Sessions())
	}
	if b.PendingCount() != 0 {
		t.Fatalf("pending = %d", b.PendingCount())
	}
}

func TestConnectValidation(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	if _, err := b.Connect("", "svc"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty user err = %v", err)
	}
	if _, err := b.Connect("u", ""); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty service err = %v", err)
	}
}

func TestConnectPendingThenAssign(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	placer := &fixedPlacer{} // nothing available yet
	b.SetPlacer(placer)

	s, err := b.Connect("bob", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if s.State != Pending || s.InstanceAddr != "" {
		t.Fatalf("session = %+v, want pending", s)
	}
	if b.PendingCount() != 1 {
		t.Fatalf("pending = %d", b.PendingCount())
	}

	// Capacity appears.
	clk.Advance(time.Minute)
	placer.inst = testInstance(t, clk)
	if got := b.AssignPending(); got != 1 {
		t.Fatalf("AssignPending = %d", got)
	}
	got, err := b.Session(s.ID)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if got.State != Active || got.InstanceID != placer.inst.ID() {
		t.Fatalf("session after assign = %+v", got)
	}
	if got.ActivatedAt.Sub(got.CreatedAt) <= 0 {
		t.Fatal("wait time not recorded")
	}
}

func TestSubscribeReceivesPushes(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	placer := &fixedPlacer{}
	b.SetPlacer(placer)

	s, _ := b.Connect("carol", "topmodel")
	ch, err := b.Subscribe(s.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	placer.inst = testInstance(t, clk)
	b.AssignPending()

	select {
	case u := <-ch:
		if u.Kind != UpdateAssigned {
			t.Fatalf("update kind = %v, want assigned", u.Kind)
		}
		if u.Session.InstanceAddr == "" {
			t.Fatal("assigned update missing address")
		}
	default:
		t.Fatal("no update pushed")
	}

	// Migration push.
	inst2 := testInstance(t, clk)
	if err := b.Migrate(s.ID, inst2, "rebalance"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	select {
	case u := <-ch:
		if u.Kind != UpdateMigrated || u.Session.InstanceID != inst2.ID() {
			t.Fatalf("update = %+v", u)
		}
		if u.Reason != "rebalance" {
			t.Fatalf("reason = %q", u.Reason)
		}
	default:
		t.Fatal("no migration update pushed")
	}

	// Close push and channel closure.
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	u, ok := <-ch
	if !ok || u.Kind != UpdateClosed {
		t.Fatalf("close update = %+v ok=%v", u, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after disconnect")
	}
}

func TestMigrateReleasesOldSlot(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst1 := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst1})
	s, _ := b.Connect("dave", "topmodel")
	inst2 := testInstance(t, clk)

	if err := b.Migrate(s.ID, inst2, ""); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if inst1.Sessions() != 0 || inst2.Sessions() != 1 {
		t.Fatalf("sessions: old=%d new=%d", inst1.Sessions(), inst2.Sessions())
	}
	if err := b.Migrate("ghost", inst2, ""); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Migrate unknown err = %v", err)
	}
}

func TestSuspendRequeues(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	s, _ := b.Connect("erin", "topmodel")
	ch, _ := b.Subscribe(s.ID)

	if err := b.Suspend(s.ID, "instance dying"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if inst.Sessions() != 0 {
		t.Fatalf("old instance still holds %d sessions", inst.Sessions())
	}
	got, _ := b.Session(s.ID)
	if got.State != Pending || got.InstanceID != "" {
		t.Fatalf("session = %+v", got)
	}
	if b.PendingCount() != 1 {
		t.Fatalf("pending = %d", b.PendingCount())
	}
	select {
	case u := <-ch:
		if u.Kind != UpdateSuspended {
			t.Fatalf("kind = %v", u.Kind)
		}
	default:
		t.Fatal("no suspend push")
	}
	// Suspending a pending session is a no-op.
	if err := b.Suspend(s.ID, "again"); err != nil {
		t.Fatalf("double Suspend: %v", err)
	}
	if err := b.Suspend("ghost", ""); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Suspend unknown err = %v", err)
	}
}

func TestDisconnectIdempotentAndErrors(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	s, _ := b.Connect("frank", "topmodel")
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if inst.Sessions() != 0 {
		t.Fatal("slot not released")
	}
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("double Disconnect: %v", err)
	}
	if err := b.Disconnect("ghost"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Disconnect unknown err = %v", err)
	}
	// Subscribing to a closed session yields a closed channel.
	ch, err := b.Subscribe(s.ID)
	if err != nil {
		t.Fatalf("Subscribe closed: %v", err)
	}
	if _, ok := <-ch; ok {
		t.Fatal("closed session channel delivered a value")
	}
}

func TestSessionsViews(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	var ids []string
	for i := 0; i < 3; i++ {
		s, _ := b.Connect("user", "topmodel")
		ids = append(ids, s.ID)
	}
	all := b.Sessions()
	if len(all) != 3 {
		t.Fatalf("Sessions = %d", len(all))
	}
	for i, s := range all {
		if s.ID != ids[i] {
			t.Fatalf("order[%d] = %s, want %s", i, s.ID, ids[i])
		}
	}
	on := b.SessionsOn(inst.ID())
	if len(on) != 3 {
		t.Fatalf("SessionsOn = %d", len(on))
	}
	if _, err := b.Session("ghost"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Session unknown err = %v", err)
	}
}

func TestDroppedUpdatesCounted(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	s, _ := b.Connect("slow", "topmodel")
	if _, err := b.Subscribe(s.ID); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Overflow the 16-slot buffer without draining.
	inst2 := testInstance(t, clk)
	for i := 0; i < 40; i++ {
		target := inst
		if i%2 == 0 {
			target = inst2
		}
		if err := b.Migrate(s.ID, target, "churn"); err != nil {
			t.Fatalf("Migrate %d: %v", i, err)
		}
	}
	if b.DroppedUpdates() == 0 {
		t.Fatal("expected dropped updates when subscriber stalls")
	}
}

func TestSubscribeAfterDisconnect(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	s, _ := b.Connect("gone", "topmodel")
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	// A recently closed session still resolves: the channel is closed.
	ch, err := b.Subscribe(s.ID)
	if err != nil {
		t.Fatalf("Subscribe after Disconnect: %v", err)
	}
	if _, ok := <-ch; ok {
		t.Fatal("closed session channel delivered a value")
	}
	// And its snapshot is still queryable from the retention ring.
	snap, err := b.Session(s.ID)
	if err != nil || snap.State != Closed {
		t.Fatalf("Session after Disconnect = %+v, %v", snap, err)
	}
}

func TestRetentionRingEvictsOldClosed(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, err := New(clk, Options{Retention: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})
	var ids []string
	for i := 0; i < 8; i++ {
		s, _ := b.Connect("churn", "topmodel")
		ids = append(ids, s.ID)
		if err := b.Disconnect(s.ID); err != nil {
			t.Fatalf("Disconnect %d: %v", i, err)
		}
	}
	if got := b.LiveCount(); got != 0 {
		t.Fatalf("LiveCount = %d, want 0", got)
	}
	if got := b.ClosedTotal(); got != 8 {
		t.Fatalf("ClosedTotal = %d, want 8", got)
	}
	recent := b.RecentlyClosed()
	if len(recent) != 3 {
		t.Fatalf("RecentlyClosed = %d sessions, want 3", len(recent))
	}
	for i, s := range recent {
		if want := ids[5+i]; s.ID != want {
			t.Fatalf("RecentlyClosed[%d] = %s, want %s (oldest first)", i, s.ID, want)
		}
	}
	// Sessions beyond the retention window are fully forgotten.
	if _, err := b.Session(ids[0]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evicted Session err = %v, want ErrNoSession", err)
	}
	if _, err := b.Subscribe(ids[0]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evicted Subscribe err = %v, want ErrNoSession", err)
	}
	// Retained ones are still idempotent to disconnect.
	if err := b.Disconnect(ids[7]); err != nil {
		t.Fatalf("Disconnect retained: %v", err)
	}
}

func TestDoubleSuspendQueuesOnce(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	inst := testInstance(t, clk)
	placer := &fixedPlacer{inst: inst}
	b.SetPlacer(placer)
	s, _ := b.Connect("flaky", "topmodel")
	placer.inst = nil // nothing to reassign to yet
	if err := b.Suspend(s.ID, "first"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if err := b.Suspend(s.ID, "second"); err != nil {
		t.Fatalf("double Suspend: %v", err)
	}
	if got := b.PendingCount(); got != 1 {
		t.Fatalf("PendingCount = %d, want 1 (no duplicate queue entry)", got)
	}
	if got := len(b.pending); got != 1 {
		t.Fatalf("pending queue length = %d, want 1", got)
	}
	// Capacity returns: exactly one assignment happens.
	placer.inst = inst
	if got := b.AssignPending(); got != 1 {
		t.Fatalf("AssignPending = %d, want 1", got)
	}
	if inst.Sessions() != 1 {
		t.Fatalf("instance sessions = %d, want 1 (bound once)", inst.Sessions())
	}
}

func TestMigratePendingSessionClearsStaleQueueEntry(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	b.SetPlacer(&fixedPlacer{}) // no capacity: session queues
	s, _ := b.Connect("eager", "topmodel")
	ch, _ := b.Subscribe(s.ID)
	inst := testInstance(t, clk)

	// The LB migrates the still-pending session directly.
	if err := b.Migrate(s.ID, inst, "fast path"); err != nil {
		t.Fatalf("Migrate pending: %v", err)
	}
	got, _ := b.Session(s.ID)
	if got.State != Active || got.InstanceID != inst.ID() {
		t.Fatalf("session = %+v, want active on %s", got, inst.ID())
	}
	select {
	case u := <-ch:
		if u.Kind != UpdateAssigned {
			t.Fatalf("push kind = %v, want assigned (first binding)", u.Kind)
		}
	default:
		t.Fatal("no push for pending->active migration")
	}
	if got := b.PendingCount(); got != 0 {
		t.Fatalf("PendingCount = %d, want 0", got)
	}
	// The stale queue entry must not double-bind the session.
	b.SetPlacer(&fixedPlacer{inst: testInstance(t, clk)})
	if got := b.AssignPending(); got != 0 {
		t.Fatalf("AssignPending = %d, want 0 (stale entry skipped)", got)
	}
	if inst.Sessions() != 1 {
		t.Fatalf("instance sessions = %d, want 1", inst.Sessions())
	}
	if got := len(b.pending); got != 0 {
		t.Fatalf("pending queue length = %d, want 0 (stale entry reclaimed)", got)
	}
	if got := len(b.queued); got != 0 {
		t.Fatalf("queued marks = %d, want 0", got)
	}
}

func TestSlowSubscriberStillGetsFinalMigration(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, err := New(clk, Options{SubscriberBuffer: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	instA := testInstance(t, clk)
	instB := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: instA})
	s, _ := b.Connect("slow", "topmodel")
	ch, _ := b.Subscribe(s.ID)

	// The subscriber stalls while the session migrates many times.
	var last *cloud.Instance
	for i := 0; i < 20; i++ {
		last = instA
		if i%2 == 0 {
			last = instB
		}
		if err := b.Migrate(s.ID, last, "churn"); err != nil {
			t.Fatalf("Migrate %d: %v", i, err)
		}
	}
	if b.DroppedUpdates() == 0 {
		t.Fatal("expected superseded updates to be counted")
	}
	// When the subscriber finally drains, the newest state — the final
	// migration redirect — is the last message.
	var final Update
	n := 0
	for {
		select {
		case u := <-ch:
			final = u
			n++
			continue
		default:
		}
		break
	}
	if n == 0 || n > 4 {
		t.Fatalf("drained %d updates, want 1..4 (buffer size)", n)
	}
	if final.Kind != UpdateMigrated {
		t.Fatalf("final update kind = %v, want migrated", final.Kind)
	}
	if final.Session.InstanceID != last.ID() || final.Session.InstanceAddr != last.Addr() {
		t.Fatalf("final redirect points at %s, want %s", final.Session.InstanceID, last.ID())
	}

	// A full buffer must not swallow the terminal close either.
	for i := 0; i < 10; i++ {
		target := instA
		if i%2 == 0 {
			target = instB
		}
		if err := b.Migrate(s.ID, target, "churn"); err != nil {
			t.Fatalf("Migrate: %v", err)
		}
	}
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	var lastSeen Update
	for u := range ch {
		lastSeen = u
	}
	if lastSeen.Kind != UpdateClosed {
		t.Fatalf("last delivered update = %v, want closed", lastSeen.Kind)
	}
}

// TestChurnKeepsMemoryBounded runs 100k connect/disconnect cycles and
// asserts the broker's structures stay O(live + retained): historical
// session count must not grow any index SessionsOn/Sessions touch.
func TestChurnKeepsMemoryBounded(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, err := New(clk, Options{Retention: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inst := testInstance(t, clk)
	b.SetPlacer(&fixedPlacer{inst: inst})

	const cycles = 100_000
	var live []string
	for i := 0; i < cycles; i++ {
		s, err := b.Connect("churn", "topmodel")
		if err != nil {
			t.Fatalf("cycle %d connect: %v", i, err)
		}
		live = append(live, s.ID)
		if len(live) > 4 { // keep a small rolling window of open sessions
			oldest := live[0]
			live = live[1:]
			if err := b.Disconnect(oldest); err != nil {
				t.Fatalf("cycle %d disconnect: %v", i, err)
			}
		}
	}
	if got := b.LiveCount(); got != len(live) {
		t.Fatalf("LiveCount = %d, want %d", got, len(live))
	}
	if got := b.ClosedTotal(); got != cycles-len(live) {
		t.Fatalf("ClosedTotal = %d, want %d", got, cycles-len(live))
	}
	// White-box: every structure is bounded by live + retention, never by
	// the 100k historical sessions.
	b.mu.Lock()
	checks := map[string]int{
		"sessions":     len(b.sessions),
		"liveElem":     len(b.liveElem),
		"live list":    b.live.Len(),
		"byInstance":   len(b.byInstance[inst.ID()]),
		"bound":        len(b.bound),
		"pending":      len(b.pending),
		"queued":       len(b.queued),
		"retained":     len(b.retained),
		"retainedByID": len(b.retainedByID),
		"subs":         len(b.subs),
	}
	b.mu.Unlock()
	for name, size := range checks {
		if size > len(live)+64 {
			t.Errorf("%s holds %d entries after churn, want <= live(%d)+retention(64)", name, size, len(live))
		}
	}
	// SessionsOn walks only the instance's current sessions.
	on := b.SessionsOn(inst.ID())
	if len(on) != len(live) {
		t.Fatalf("SessionsOn = %d, want %d", len(on), len(live))
	}
	if all := b.Sessions(); len(all) != len(live) {
		t.Fatalf("Sessions = %d, want %d live", len(all), len(live))
	}
	if inst.Sessions() != len(live) {
		t.Fatalf("instance slots = %d, want %d (no leaked slots)", inst.Sessions(), len(live))
	}
}

func TestStateAndKindStrings(t *testing.T) {
	for got, want := range map[string]string{
		Pending.String():         "pending",
		Active.String():          "active",
		Closed.String():          "closed",
		SessionState(9).String(): "SessionState(9)",
		UpdateAssigned.String():  "assigned",
		UpdateMigrated.String():  "migrated",
		UpdateClosed.String():    "closed",
		UpdateSuspended.String(): "suspended",
		UpdateKind(9).String():   "UpdateKind(9)",
	} {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestSuspendResumePushSequence follows one session through the losing-an-
// instance path: Suspend must push UpdateSuspended (empty instance), the
// next AssignPending must rebind it and push UpdateAssigned with the new
// address, and the suspended counters must track the whole arc.
func TestSuspendResumePushSequence(t *testing.T) {
	clk := clock.NewSimulated(epoch)
	b, _ := New(clk, Options{})
	first := testInstance(t, clk)
	placer := &fixedPlacer{inst: first}
	b.SetPlacer(placer)

	s, err := b.Connect("alice", "topmodel")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	ch, err := b.Subscribe(s.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	placer.inst = nil // the replacement has not booted yet
	if err := b.Suspend(s.ID, "instance "+first.ID()+" malfunctioning"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if b.SuspendedCount() != 1 || b.SuspendedTotal() != 1 {
		t.Fatalf("suspended count/total = %d/%d, want 1/1", b.SuspendedCount(), b.SuspendedTotal())
	}
	if first.Sessions() != 0 {
		t.Fatalf("old instance still holds %d sessions", first.Sessions())
	}
	u := <-ch
	if u.Kind != UpdateSuspended || u.Session.InstanceAddr != "" || u.Session.State != Pending {
		t.Fatalf("first push = %+v, want suspended with no instance", u)
	}
	// Nothing to assign yet: the session stays suspended.
	if got := b.AssignPending(); got != 0 || b.SuspendedCount() != 1 {
		t.Fatalf("premature assignment: assigned=%d suspended=%d", got, b.SuspendedCount())
	}

	// The replacement boots; the session resumes there.
	clk.Advance(time.Minute)
	second := testInstance(t, clk)
	placer.inst = second
	if got := b.AssignPending(); got != 1 {
		t.Fatalf("AssignPending = %d, want 1", got)
	}
	if b.SuspendedCount() != 0 {
		t.Fatalf("suspended count after resume = %d, want 0", b.SuspendedCount())
	}
	if b.SuspendedTotal() != 1 {
		t.Fatalf("suspended total after resume = %d, want 1 (historic)", b.SuspendedTotal())
	}
	u = <-ch
	if u.Kind != UpdateAssigned || u.Session.InstanceAddr != second.Addr() {
		t.Fatalf("resume push = %+v, want assigned on %s", u, second.Addr())
	}

	// A second suspension resolved by Migrate also clears the flag.
	if err := b.Suspend(s.ID, "again"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if err := b.Migrate(s.ID, first, "rescue"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if b.SuspendedCount() != 0 || b.SuspendedTotal() != 2 {
		t.Fatalf("after migrate: count/total = %d/%d, want 0/2", b.SuspendedCount(), b.SuspendedTotal())
	}
	u = <-ch // the suspension push
	u = <-ch // the migrate push: a pending session rebinding arrives as "assigned"
	if u.Kind != UpdateAssigned || u.Session.InstanceAddr != first.Addr() {
		t.Fatalf("migrate push = %+v, want assigned on %s", u, first.Addr())
	}

	// Disconnect clears a live suspension from the count.
	if err := b.Suspend(s.ID, "third"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if err := b.Disconnect(s.ID); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if b.SuspendedCount() != 0 || b.SuspendedTotal() != 3 {
		t.Fatalf("after disconnect: count/total = %d/%d, want 0/3", b.SuspendedCount(), b.SuspendedTotal())
	}
}
