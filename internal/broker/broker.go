// Package broker implements EVOp's Resource Broker (RB, paper Section
// IV-D): the Infrastructure Manager module a browser session connects to
// when a user opens a modelling widget. The RB "responds with an address
// of a cloud instance that is suitable for the type of computation
// required, along with some session information", tracks active sessions
// to sense load, and pushes session updates (such as migration to a new
// instance) to the user's browser over the WebSocket channel.
//
// The broker does not decide placement policy itself: a Placer (the Load
// Balancer) is consulted for immediate placement, and sessions that cannot
// be placed yet are queued as pending until capacity appears.
//
// # Session bookkeeping
//
// Each live (Pending or Active) session has one record holding its
// snapshot, its bound instance, its push subscription and its queue
// flags, so there is no set of parallel indices to keep in step. One
// bind path (Connect, AssignPending, Migrate) and one unbind path
// (Migrate, Suspend, Disconnect) move a record between states. The
// broker keeps memory O(live + recently closed), not O(every session
// ever created):
//
//   - Live sessions sit in an insertion-ordered list, so Sessions() is
//     O(live).
//   - Active sessions are additionally indexed per instance, so
//     SessionsOn() is O(sessions on that instance) — the Load Balancer
//     calls it for every instance on every control tick.
//   - Closed sessions are evicted from the live structures and retained
//     only as snapshots in a bounded ring (DefaultRetention), so a
//     just-closed session still answers Session()/Subscribe() queries
//     while long-dead ones stop costing memory.
//   - The pending queue is deduplicated: a session is never enqueued
//     twice. PendingCount(), SuspendedCount() and the
//     evop_sessions{state} gauges are O(1) counts.
//
// Push delivery rides the internal/push hub on per-session topics and
// coalesces per session: when a subscriber falls behind, the oldest
// queued update is discarded (and counted in
// evop_push_coalesced_total{hub="sessions"}) so the newest session
// state — notably an UpdateMigrated redirect — always arrives. A
// dropped update therefore means "superseded", never "the browser
// missed the final state".
package broker

import (
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/metrics"
	"evop/internal/push"
)

// Common errors.
var (
	// ErrNoSession indicates an unknown session ID.
	ErrNoSession = errors.New("broker: session not found")
	// ErrBadConfig indicates an invalid broker configuration.
	ErrBadConfig = errors.New("broker: invalid configuration")
)

// SessionState is the lifecycle state of a user session.
type SessionState int

// Session states.
const (
	// Pending means no instance is available yet; the user is waiting.
	Pending SessionState = iota + 1
	// Active means the session is bound to a running instance.
	Active
	// Closed means the session has ended.
	Closed
)

// String returns the state name.
func (s SessionState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// Session is one user's connection to the observatory.
type Session struct {
	// ID is the broker-assigned session identifier.
	ID string `json:"id"`
	// UserID identifies the user (or simulated persona).
	UserID string `json:"userId"`
	// Service names the computation the session needs ("topmodel").
	Service string `json:"service"`
	// State is the lifecycle state.
	State SessionState `json:"state"`
	// InstanceID and InstanceAddr identify the serving instance when
	// Active.
	InstanceID   string `json:"instanceId,omitempty"`
	InstanceAddr string `json:"instanceAddr,omitempty"`
	// CreatedAt is when the user connected.
	CreatedAt time.Time `json:"createdAt"`
	// ActivatedAt is when the session was first bound to an instance.
	ActivatedAt time.Time `json:"activatedAt,omitempty"`
}

// UpdateKind classifies the session updates pushed to the browser.
type UpdateKind int

// Update kinds.
const (
	// UpdateAssigned means the session was bound to its first instance.
	UpdateAssigned UpdateKind = iota + 1
	// UpdateMigrated means the session moved to a new instance; the
	// browser should redirect its calls.
	UpdateMigrated
	// UpdateClosed means the session ended.
	UpdateClosed
	// UpdateSuspended means the session lost its instance and is queued
	// for reassignment.
	UpdateSuspended
)

// String returns the kind name.
func (k UpdateKind) String() string {
	switch k {
	case UpdateAssigned:
		return "assigned"
	case UpdateMigrated:
		return "migrated"
	case UpdateClosed:
		return "closed"
	case UpdateSuspended:
		return "suspended"
	default:
		return fmt.Sprintf("UpdateKind(%d)", int(k))
	}
}

// Update is one push message for a session.
type Update struct {
	Kind    UpdateKind `json:"kind"`
	Session Session    `json:"session"`
	Reason  string     `json:"reason,omitempty"`
	At      time.Time  `json:"at"`
}

// Placer supplies an instance for immediate placement, or nil when none
// is available right now (the session then queues as pending).
type Placer interface {
	// PlaceNow returns a running instance with spare capacity for the
	// service, or nil.
	PlaceNow(service string) *cloud.Instance
}

// Bounds of the broker's structures.
const (
	// DefaultRetention is how many recently closed sessions remain
	// queryable via Session/Subscribe after Disconnect. Older closed
	// sessions are forgotten entirely.
	DefaultRetention = 1024
	// DefaultSubscriberBuffer is the per-session push channel capacity.
	DefaultSubscriberBuffer = 16
)

// Broker is the Resource Broker.
type Broker struct {
	clk clock.Clock

	mu  sync.Mutex
	seq int
	// sessions holds live (Pending or Active) sessions only; closed
	// sessions move to the retention ring.
	sessions map[string]*entry
	// live orders live sessions by creation; elements hold *entry.
	live *list.List
	// byInstance indexes active sessions per instance in bind order.
	byInstance map[string][]*entry
	// pending is the arrival-ordered queue of sessions waiting for
	// capacity; entries that left the Pending state while queued are
	// skipped and reclaimed lazily. numPending and numSuspended count
	// live sessions in state Pending, and the suspended subset of those.
	pending      []*entry
	numPending   int
	numSuspended int
	// suspendedTotal counts every suspension ever; the LB surfaces it
	// beside numSuspended so a chaos run can assert nobody is stranded.
	suspendedTotal *metrics.Counter
	closedTotal    *metrics.Counter
	// retained is a ring of closed-session snapshots (oldest at
	// retainedHead once full); retainedByID maps an ID to its slot.
	retained     []Session
	retainedHead int
	retainedByID map[string]int

	placer Placer
	// hub delivers session updates on per-session topics with bounded,
	// coalescing, spin-free queues.
	hub *push.Hub[Update]
}

// entry is the broker's record of one live session.
type entry struct {
	s    Session
	inst *cloud.Instance // bound instance while Active
	// sub is the session's single push subscription, shared by repeated
	// Subscribe calls.
	sub *push.Subscription[Update]
	el  *list.Element // position in the live list
	// queued marks an entry in the pending slice, so a session is never
	// enqueued twice; suspended marks a Pending session that lost its
	// instance.
	queued, suspended bool
}

// New returns a Broker on the given clock. A non-nil reg registers the
// broker's lifecycle counters, its session gauges and the session hub's
// fan-out instruments.
func New(clk clock.Clock, reg *metrics.Registry) (*Broker, error) {
	if clk == nil {
		return nil, fmt.Errorf("nil clock: %w", ErrBadConfig)
	}
	b := &Broker{
		clk:          clk,
		sessions:     make(map[string]*entry),
		live:         list.New(),
		byInstance:   make(map[string][]*entry),
		retainedByID: make(map[string]int),
		hub:          push.NewHub[Update](reg, "sessions"),
		suspendedTotal: reg.Counter("evop_broker_sessions_suspended_total",
			"Sessions suspended after losing their instance."),
		closedTotal: reg.Counter("evop_broker_sessions_closed_total",
			"Sessions closed over the broker's lifetime."),
	}
	reg.GaugeFunc("evop_broker_sessions_suspended",
		"Sessions currently waiting for a new instance after losing one.",
		func() float64 { return float64(b.SuspendedCount()) })
	reg.GaugeFunc("evop_sessions", "Broker sessions by state.",
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.sessions) - b.numPending)
		}, metrics.L("state", "active"))
	reg.GaugeFunc("evop_sessions", "Broker sessions by state.",
		func() float64 { return float64(b.PendingCount()) },
		metrics.L("state", "pending"))
	return b, nil
}

// SetPlacer registers the placement authority (the Load Balancer).
func (b *Broker) SetPlacer(p Placer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.placer = p
}

// Connect opens a session for a user. If the placer can serve it now the
// session is Active with an instance address; otherwise it is Pending and
// the user will receive an UpdateAssigned push once capacity appears.
func (b *Broker) Connect(userID, service string) (Session, error) {
	if userID == "" || service == "" {
		return Session{}, fmt.Errorf("user %q service %q: %w", userID, service, ErrBadConfig)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	e := &entry{s: Session{
		ID:        "s" + strconv.Itoa(b.seq),
		UserID:    userID,
		Service:   service,
		State:     Pending,
		CreatedAt: b.clk.Now(),
	}}
	b.sessions[e.s.ID] = e
	e.el = b.live.PushBack(e)
	b.numPending++
	if b.placer != nil {
		if inst := b.placer.PlaceNow(service); inst != nil && b.bindLocked(e, inst, "") == nil {
			return e.s, nil
		}
	}
	b.enqueuePendingLocked(e)
	return e.s, nil
}

// enqueuePendingLocked appends a session to the pending queue unless it is
// already queued; the broker lock is held.
func (b *Broker) enqueuePendingLocked(e *entry) {
	if e.queued {
		return
	}
	// Amortised compaction: if the queue is dominated by stale entries
	// (sessions that left the Pending state while queued), drop them so
	// the slice stays O(pending) even when AssignPending never runs.
	if len(b.pending) > 64 && len(b.pending) > 4*b.numPending {
		kept := b.pending[:0]
		for _, q := range b.pending {
			if q.s.State == Pending {
				kept = append(kept, q)
			} else {
				q.queued = false
			}
		}
		clear(b.pending[len(kept):])
		b.pending = kept
	}
	b.pending = append(b.pending, e)
	e.queued = true
}

// bindLocked binds a live session to inst, first leaving whatever it held
// (see unbindLocked), and pushes UpdateMigrated when an active session
// moves or UpdateAssigned when a pending one gets its instance. The
// broker lock is held.
func (b *Broker) bindLocked(e *entry, inst *cloud.Instance, reason string) error {
	if err := inst.AddSession(); err != nil {
		return err
	}
	kind := UpdateAssigned
	if e.s.State == Active {
		kind = UpdateMigrated
	}
	b.unbindLocked(e)
	now := b.clk.Now()
	e.s.State = Active
	e.s.InstanceID = inst.ID()
	e.s.InstanceAddr = inst.Addr()
	if e.s.ActivatedAt.IsZero() {
		e.s.ActivatedAt = now
	}
	e.inst = inst
	b.byInstance[inst.ID()] = append(b.byInstance[inst.ID()], e)
	b.pushLocked(e, Update{Kind: kind, Reason: reason, At: now})
	return nil
}

// unbindLocked takes a live session out of its current state's
// bookkeeping: a pending one leaves the pending (and suspended) counts,
// an active one releases its instance slot and leaves that instance's
// index. A pending-queue entry it leaves behind goes stale and is
// skipped. The broker lock is held.
func (b *Broker) unbindLocked(e *entry) {
	if e.s.State == Pending {
		b.numPending--
	}
	if e.suspended {
		e.suspended = false
		b.numSuspended--
	}
	if e.inst == nil {
		return
	}
	e.inst.RemoveSession()
	id := e.inst.ID()
	on := b.byInstance[id]
	for i, cand := range on {
		if cand == e {
			on = append(on[:i], on[i+1:]...)
			break
		}
	}
	if len(on) == 0 {
		delete(b.byInstance, id)
	} else {
		b.byInstance[id] = on
	}
	e.inst = nil
}

// AssignPending tries to bind queued sessions using the placer, oldest
// first, and returns how many were activated.
func (b *Broker) AssignPending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.placer == nil {
		return 0
	}
	assigned := 0
	still := b.pending[:0]
	for _, e := range b.pending {
		if e.s.State != Pending {
			e.queued = false
			continue
		}
		inst := b.placer.PlaceNow(e.s.Service)
		if inst == nil || b.bindLocked(e, inst, "") != nil {
			still = append(still, e)
			continue
		}
		e.queued = false
		assigned++
	}
	clear(b.pending[len(still):])
	b.pending = still
	return assigned
}

// Migrate moves a session to a new instance and pushes an UpdateMigrated
// message so the browser redirects ("RB is used to push updated session
// information in order to redirect user calls"). Migrating a still-pending
// session activates it (the push is then UpdateAssigned); any stale
// pending-queue entry is skipped and reclaimed by the next AssignPending.
func (b *Broker) Migrate(sessionID string, to *cloud.Instance, reason string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.sessions[sessionID]
	if !ok {
		return fmt.Errorf("migrate %s: %w", sessionID, ErrNoSession)
	}
	if err := b.bindLocked(e, to, reason); err != nil {
		return fmt.Errorf("migrating session %s: %w", sessionID, err)
	}
	return nil
}

// Suspend unbinds an active session (for example because its instance is
// being replaced) and returns it to the pending queue; the user keeps the
// session and is reassigned when capacity appears.
func (b *Broker) Suspend(sessionID, reason string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.sessions[sessionID]
	if !ok {
		// Closed (evicted) and unknown sessions alike cannot be suspended.
		return fmt.Errorf("suspend %s: %w", sessionID, ErrNoSession)
	}
	if e.s.State == Pending {
		return nil
	}
	b.unbindLocked(e)
	e.s.State = Pending
	e.s.InstanceID = ""
	e.s.InstanceAddr = ""
	b.numPending++
	e.suspended = true
	b.numSuspended++
	b.suspendedTotal.Inc()
	b.enqueuePendingLocked(e)
	b.pushLocked(e, Update{Kind: UpdateSuspended, Reason: reason, At: b.clk.Now()})
	return nil
}

// Disconnect ends a session, releasing its instance slot — this is how
// the infrastructure "senses when user sessions end" to balance load. The
// session is evicted from the live structures; a snapshot stays queryable
// in the retention ring. Disconnecting an already-closed (retained)
// session is a no-op.
func (b *Broker) Disconnect(sessionID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.sessions[sessionID]
	if !ok {
		if _, closed := b.retainedByID[sessionID]; closed {
			return nil
		}
		return fmt.Errorf("disconnect %s: %w", sessionID, ErrNoSession)
	}
	b.unbindLocked(e)
	e.s.State = Closed
	b.closedTotal.Inc()
	b.pushLocked(e, Update{Kind: UpdateClosed, At: b.clk.Now()})
	if e.sub != nil {
		// Cancel closes the channel after the terminal UpdateClosed above
		// was enqueued, so the subscriber drains it and then sees EOF.
		e.sub.Cancel()
		e.sub = nil
	}
	delete(b.sessions, sessionID)
	b.live.Remove(e.el)
	// The pending queue may still hold the entry; AssignPending or the
	// next compaction reclaims it.
	if len(b.retained) < DefaultRetention {
		b.retainedByID[sessionID] = len(b.retained)
		b.retained = append(b.retained, e.s)
	} else {
		delete(b.retainedByID, b.retained[b.retainedHead].ID)
		b.retained[b.retainedHead] = e.s
		b.retainedByID[sessionID] = b.retainedHead
		b.retainedHead = (b.retainedHead + 1) % DefaultRetention
	}
	return nil
}

// Subscribe returns the push channel for a session's updates (creating it
// if needed). The channel is buffered; if the subscriber falls behind, the
// oldest queued update is dropped (and counted) so the latest state always
// arrives. The channel closes when the session ends. Subscribing to a
// recently closed session yields an already-closed channel.
func (b *Broker) Subscribe(sessionID string) (<-chan Update, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.sessions[sessionID]
	if !ok {
		if _, closed := b.retainedByID[sessionID]; closed {
			ch := make(chan Update)
			close(ch)
			return ch, nil
		}
		return nil, fmt.Errorf("subscribe %s: %w", sessionID, ErrNoSession)
	}
	if e.sub == nil {
		sub, err := b.hub.Subscribe(DefaultSubscriberBuffer, push.TopicSession(sessionID))
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", sessionID, err)
		}
		e.sub = sub
	}
	return e.sub.C(), nil
}

// pushLocked delivers an update carrying the session's current snapshot
// on its topic. The hub coalesces per subscriber: a full buffer evicts
// the oldest queued update (counted in evop_push_coalesced_total) so the
// newest session state — e.g. a migration redirect — is never lost, and
// a publisher never spins against an actively draining reader.
func (b *Broker) pushLocked(e *entry, u Update) {
	u.Session = e.s
	b.hub.Publish(u, push.TopicSession(e.s.ID))
}

// Session returns a snapshot of one session. Recently closed sessions
// (within the retention window) still resolve.
func (b *Broker) Session(id string) (Session, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.sessions[id]; ok {
		return e.s, nil
	}
	if i, ok := b.retainedByID[id]; ok {
		return b.retained[i], nil
	}
	return Session{}, fmt.Errorf("session %s: %w", id, ErrNoSession)
}

// Sessions returns snapshots of all live (pending or active) sessions in
// creation order. Closed sessions are not included; Session still answers
// for the recently closed ones, and evop_broker_sessions_closed_total
// counts them all.
func (b *Broker) Sessions() []Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Session, 0, b.live.Len())
	for el := b.live.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).s)
	}
	return out
}

// SessionsOn returns the active sessions bound to an instance, in bind
// order. Cost is proportional to that instance's session count only.
func (b *Broker) SessionsOn(instanceID string) []Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	on := b.byInstance[instanceID]
	if len(on) == 0 {
		return nil
	}
	out := make([]Session, 0, len(on))
	for _, e := range on {
		out = append(out, e.s)
	}
	return out
}

// PendingCount returns how many sessions are waiting for capacity.
func (b *Broker) PendingCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.numPending
}

// SuspendedCount returns how many sessions are currently suspended:
// pending because they lost their instance, still waiting for a new one.
func (b *Broker) SuspendedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.numSuspended
}

// LiveCount returns how many sessions are pending or active.
func (b *Broker) LiveCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}
