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
// The broker keeps memory O(live + recently closed), not O(every session
// ever created):
//
//   - Live (Pending or Active) sessions sit in an insertion-ordered list,
//     so Sessions() is O(live).
//   - Active sessions are additionally indexed per instance, so
//     SessionsOn() is O(sessions on that instance) — the Load Balancer
//     calls it for every instance on every control tick.
//   - Closed sessions are evicted from the live structures and retained
//     only as snapshots in a bounded ring (Options.Retention), so a
//     just-closed session still answers Session()/Subscribe() queries
//     while long-dead ones stop costing memory.
//   - The pending queue is deduplicated: a session is never enqueued
//     twice, and PendingCount() is O(1).
//
// Push delivery rides the internal/push hub on per-session topics and
// coalesces per session: when a subscriber falls behind, the oldest
// queued update is discarded (and counted in DroppedUpdates) so the
// newest session state — notably an UpdateMigrated redirect — always
// arrives. A dropped update therefore means "superseded", never "the
// browser missed the final state".
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

// Defaults for Options.
const (
	// DefaultRetention is how many closed-session snapshots are kept.
	DefaultRetention = 1024
	// DefaultSubscriberBuffer is the per-session push channel capacity.
	DefaultSubscriberBuffer = 16
)

// Options tunes the broker's bounded structures. The zero value selects
// the defaults.
type Options struct {
	// Retention is how many recently closed sessions remain queryable via
	// Session/Subscribe after Disconnect. Older closed sessions are
	// forgotten entirely. Negative disables retention; zero means
	// DefaultRetention.
	Retention int
	// SubscriberBuffer is the capacity of each session's update channel.
	// Zero means DefaultSubscriberBuffer; values below 1 are rejected.
	SubscriberBuffer int
	// Metrics, when non-nil, registers the broker's lifecycle counters
	// and the session hub's fan-out instruments in the registry.
	Metrics *metrics.Registry
}

// Broker is the Resource Broker.
type Broker struct {
	clk       clock.Clock
	retention int
	subBuf    int

	mu  sync.Mutex
	seq int
	// sessions holds live (Pending or Active) sessions only; closed
	// sessions move to the retention ring.
	sessions map[string]*Session
	// live orders live sessions by creation; elements hold *Session.
	live     *list.List
	liveElem map[string]*list.Element
	// byInstance indexes active sessions per instance in bind order.
	byInstance map[string][]*Session
	// pending is the arrival-ordered queue of session IDs waiting for
	// capacity; queued marks IDs currently in the slice so a session is
	// never enqueued twice. numPending counts sessions in state Pending.
	pending    []string
	queued     map[string]bool
	numPending int
	// suspended marks pending sessions that previously had an instance and
	// lost it (Suspend); suspendedTotal counts every suspension ever. The
	// LB surfaces both so a chaos run can assert nobody is left stranded.
	suspended      map[string]bool
	suspendedTotal *metrics.Counter
	// retained is a ring of closed-session IDs (oldest at head) whose
	// snapshots live in retainedByID.
	retained     []string
	retainedHead int
	retainedByID map[string]*Session

	placer Placer
	// hub delivers session updates on per-session topics with bounded,
	// coalescing, spin-free queues; subs tracks each session's single
	// subscription so repeated Subscribe calls share one channel.
	hub  *push.Hub[Update]
	subs map[string]*push.Subscription[Update]
	// bound tracks which instance each active session is on, to release
	// session slots on close/migrate.
	bound map[string]*cloud.Instance

	// stats
	closedTotal *metrics.Counter
}

// New returns a Broker on the given clock, configured by opts; the zero
// Options gives the defaults.
func New(clk clock.Clock, opts Options) (*Broker, error) {
	if clk == nil {
		return nil, fmt.Errorf("nil clock: %w", ErrBadConfig)
	}
	retention := opts.Retention
	switch {
	case retention == 0:
		retention = DefaultRetention
	case retention < 0:
		retention = 0
	}
	subBuf := opts.SubscriberBuffer
	if subBuf == 0 {
		subBuf = DefaultSubscriberBuffer
	}
	if subBuf < 1 {
		return nil, fmt.Errorf("subscriber buffer %d: %w", opts.SubscriberBuffer, ErrBadConfig)
	}
	reg := opts.Metrics
	b := &Broker{
		clk:          clk,
		retention:    retention,
		subBuf:       subBuf,
		sessions:     make(map[string]*Session),
		live:         list.New(),
		liveElem:     make(map[string]*list.Element),
		byInstance:   make(map[string][]*Session),
		queued:       make(map[string]bool),
		suspended:    make(map[string]bool),
		retainedByID: make(map[string]*Session),
		hub: push.NewHubWithMetrics[Update](
			push.NewHubMetrics(reg, "sessions", push.DefaultShards)),
		subs:  make(map[string]*push.Subscription[Update]),
		bound: make(map[string]*cloud.Instance),
		suspendedTotal: reg.Counter("evop_broker_sessions_suspended_total",
			"Sessions suspended after losing their instance."),
		closedTotal: reg.Counter("evop_broker_sessions_closed_total",
			"Sessions closed over the broker's lifetime."),
	}
	reg.GaugeFunc("evop_broker_sessions_suspended",
		"Sessions currently waiting for a new instance after losing one.",
		func() float64 { return float64(b.SuspendedCount()) })
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
	s := &Session{
		ID:        "s" + strconv.Itoa(b.seq),
		UserID:    userID,
		Service:   service,
		State:     Pending,
		CreatedAt: b.clk.Now(),
	}
	b.sessions[s.ID] = s
	b.liveElem[s.ID] = b.live.PushBack(s)
	b.numPending++
	if b.placer != nil {
		if inst := b.placer.PlaceNow(service); inst != nil {
			if err := b.bindLocked(s, inst); err == nil {
				return *s, nil
			}
		}
	}
	b.enqueuePendingLocked(s.ID)
	return *s, nil
}

// enqueuePendingLocked appends a session to the pending queue unless it is
// already queued; the broker lock is held.
func (b *Broker) enqueuePendingLocked(id string) {
	if b.queued[id] {
		return
	}
	// Amortised compaction: if the queue is dominated by stale entries
	// (sessions that left the Pending state while queued), rebuild it so
	// the slice stays O(pending) even when AssignPending never runs.
	if len(b.pending) > 64 && len(b.pending) > 4*b.numPending {
		b.compactPendingLocked()
	}
	b.pending = append(b.pending, id)
	b.queued[id] = true
}

// compactPendingLocked drops queue entries whose session is no longer live
// and Pending; the broker lock is held.
func (b *Broker) compactPendingLocked() {
	kept := b.pending[:0]
	for _, id := range b.pending {
		if s, ok := b.sessions[id]; ok && s.State == Pending {
			kept = append(kept, id)
		} else {
			delete(b.queued, id)
		}
	}
	b.pending = kept
}

// bindLocked binds a session to an instance; the broker lock is held.
func (b *Broker) bindLocked(s *Session, inst *cloud.Instance) error {
	if err := inst.AddSession(); err != nil {
		return fmt.Errorf("binding session %s: %w", s.ID, err)
	}
	if s.State == Pending {
		b.numPending--
	}
	delete(b.suspended, s.ID)
	s.State = Active
	s.InstanceID = inst.ID()
	s.InstanceAddr = inst.Addr()
	if s.ActivatedAt.IsZero() {
		s.ActivatedAt = b.clk.Now()
	}
	b.bound[s.ID] = inst
	b.byInstance[inst.ID()] = append(b.byInstance[inst.ID()], s)
	b.pushLocked(s.ID, Update{Kind: UpdateAssigned, Session: *s, At: b.clk.Now()})
	return nil
}

// unindexInstanceLocked removes a session from its instance's index; the
// broker lock is held.
func (b *Broker) unindexInstanceLocked(s *Session) {
	if s.InstanceID == "" {
		return
	}
	on := b.byInstance[s.InstanceID]
	for i, cand := range on {
		if cand.ID == s.ID {
			on = append(on[:i], on[i+1:]...)
			break
		}
	}
	if len(on) == 0 {
		delete(b.byInstance, s.InstanceID)
	} else {
		b.byInstance[s.InstanceID] = on
	}
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
	var still []string
	for _, id := range b.pending {
		s, ok := b.sessions[id]
		if !ok || s.State != Pending {
			delete(b.queued, id)
			continue
		}
		inst := b.placer.PlaceNow(s.Service)
		if inst == nil {
			still = append(still, id)
			continue
		}
		if err := b.bindLocked(s, inst); err != nil {
			still = append(still, id)
			continue
		}
		delete(b.queued, id)
		assigned++
	}
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
	s, ok := b.sessions[sessionID]
	if !ok {
		return fmt.Errorf("migrate %s: %w", sessionID, ErrNoSession)
	}
	if err := to.AddSession(); err != nil {
		return fmt.Errorf("migrating session %s: %w", sessionID, err)
	}
	if old := b.bound[sessionID]; old != nil {
		old.RemoveSession()
	}
	b.unindexInstanceLocked(s)
	wasPending := s.State == Pending
	if wasPending {
		b.numPending--
	}
	delete(b.suspended, sessionID)
	s.State = Active
	s.InstanceID = to.ID()
	s.InstanceAddr = to.Addr()
	if s.ActivatedAt.IsZero() {
		s.ActivatedAt = b.clk.Now()
	}
	b.bound[sessionID] = to
	b.byInstance[to.ID()] = append(b.byInstance[to.ID()], s)
	kind := UpdateMigrated
	if wasPending {
		kind = UpdateAssigned
	}
	b.pushLocked(sessionID, Update{Kind: kind, Session: *s, Reason: reason, At: b.clk.Now()})
	return nil
}

// Suspend unbinds an active session (for example because its instance is
// being replaced) and returns it to the pending queue; the user keeps the
// session and is reassigned when capacity appears.
func (b *Broker) Suspend(sessionID, reason string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sessions[sessionID]
	if !ok {
		// Closed (evicted) and unknown sessions alike cannot be suspended.
		return fmt.Errorf("suspend %s: %w", sessionID, ErrNoSession)
	}
	if s.State == Pending {
		return nil
	}
	if inst := b.bound[sessionID]; inst != nil {
		inst.RemoveSession()
		delete(b.bound, sessionID)
	}
	b.unindexInstanceLocked(s)
	s.State = Pending
	s.InstanceID = ""
	s.InstanceAddr = ""
	b.numPending++
	b.suspended[sessionID] = true
	b.suspendedTotal.Inc()
	b.enqueuePendingLocked(sessionID)
	b.pushLocked(sessionID, Update{Kind: UpdateSuspended, Session: *s, Reason: reason, At: b.clk.Now()})
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
	s, ok := b.sessions[sessionID]
	if !ok {
		if _, closed := b.retainedByID[sessionID]; closed {
			return nil
		}
		return fmt.Errorf("disconnect %s: %w", sessionID, ErrNoSession)
	}
	if inst := b.bound[sessionID]; inst != nil {
		inst.RemoveSession()
		delete(b.bound, sessionID)
	}
	b.unindexInstanceLocked(s)
	if s.State == Pending {
		b.numPending--
	}
	delete(b.suspended, sessionID)
	s.State = Closed
	b.closedTotal.Inc()
	b.pushLocked(sessionID, Update{Kind: UpdateClosed, Session: *s, At: b.clk.Now()})
	if sub, ok := b.subs[sessionID]; ok {
		// Cancel closes the channel after the terminal UpdateClosed above
		// was enqueued, so the subscriber drains it and then sees EOF.
		sub.Cancel()
		delete(b.subs, sessionID)
	}
	b.evictLocked(s)
	return nil
}

// evictLocked removes a closed session from the live structures and files
// its snapshot in the retention ring; the broker lock is held.
func (b *Broker) evictLocked(s *Session) {
	delete(b.sessions, s.ID)
	if el, ok := b.liveElem[s.ID]; ok {
		b.live.Remove(el)
		delete(b.liveElem, s.ID)
	}
	// The pending queue may still hold the ID; AssignPending or the next
	// compaction reclaims it (b.queued keeps dedupe coherent meanwhile).
	if b.retention == 0 {
		return
	}
	snap := *s
	if len(b.retained) < b.retention {
		b.retained = append(b.retained, s.ID)
	} else {
		oldest := b.retained[b.retainedHead]
		delete(b.retainedByID, oldest)
		b.retained[b.retainedHead] = s.ID
		b.retainedHead = (b.retainedHead + 1) % b.retention
	}
	b.retainedByID[s.ID] = &snap
}

// Subscribe returns the push channel for a session's updates (creating it
// if needed). The channel is buffered; if the subscriber falls behind, the
// oldest queued update is dropped (and counted) so the latest state always
// arrives. The channel closes when the session ends. Subscribing to a
// recently closed session yields an already-closed channel.
func (b *Broker) Subscribe(sessionID string) (<-chan Update, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.sessions[sessionID]; !ok {
		if _, closed := b.retainedByID[sessionID]; closed {
			ch := make(chan Update)
			close(ch)
			return ch, nil
		}
		return nil, fmt.Errorf("subscribe %s: %w", sessionID, ErrNoSession)
	}
	sub, ok := b.subs[sessionID]
	if !ok {
		var err error
		sub, err = b.hub.Subscribe(b.subBuf, push.TopicSession(sessionID))
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", sessionID, err)
		}
		b.subs[sessionID] = sub
	}
	return sub.C(), nil
}

// pushLocked delivers an update on the session's topic. The hub
// coalesces per subscriber: a full buffer evicts the oldest queued
// update (counted in DroppedUpdates) so the newest session state — e.g.
// a migration redirect — is never lost, and a publisher never spins
// against an actively draining reader (one eviction makes room, and the
// per-subscription lock keeps it that way).
func (b *Broker) pushLocked(sessionID string, u Update) {
	b.hub.Publish(u, push.TopicSession(sessionID))
}

// Session returns a snapshot of one session. Recently closed sessions
// (within the retention window) still resolve.
func (b *Broker) Session(id string) (Session, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sessions[id]; ok {
		return *s, nil
	}
	if s, ok := b.retainedByID[id]; ok {
		return *s, nil
	}
	return Session{}, fmt.Errorf("session %s: %w", id, ErrNoSession)
}

// Sessions returns snapshots of all live (pending or active) sessions in
// creation order. Closed sessions are not included; see RecentlyClosed and
// ClosedTotal.
func (b *Broker) Sessions() []Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Session, 0, b.live.Len())
	for el := b.live.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Session))
	}
	return out
}

// RecentlyClosed returns snapshots of the retained closed sessions, oldest
// first.
func (b *Broker) RecentlyClosed() []Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Session, 0, len(b.retained))
	for i := 0; i < len(b.retained); i++ {
		id := b.retained[(b.retainedHead+i)%len(b.retained)]
		if s, ok := b.retainedByID[id]; ok {
			out = append(out, *s)
		}
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
	for _, s := range on {
		out = append(out, *s)
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
	return len(b.suspended)
}

// SuspendedTotal returns how many suspensions have ever happened.
func (b *Broker) SuspendedTotal() int {
	return int(b.suspendedTotal.Value())
}

// LiveCount returns how many sessions are pending or active.
func (b *Broker) LiveCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// ClosedTotal returns how many sessions have ever been closed.
func (b *Broker) ClosedTotal() int {
	return int(b.closedTotal.Value())
}

// DroppedUpdates reports push messages superseded by newer ones for slow
// subscribers. A dropped update is stale state the browser no longer
// needs, not a lost redirect: the latest update is always delivered.
func (b *Broker) DroppedUpdates() int {
	return int(b.hub.Stats().Coalesced)
}
