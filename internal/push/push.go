// Package push is the live-telemetry fan-out hub: the substrate over
// which the observatory pushes sensor readings and session updates to
// browsers ("event-based asynchronous duplex communication without the
// need for periodic polling", paper Section IV-D) — generalising the
// Resource Broker's per-session push channel into a topic-based
// publish/subscribe layer the portal's /ws/live endpoint and the broker
// both ride on.
//
// # Design
//
//   - Topic-based subscriptions. A topic is an opaque string; the
//     conventional namespaces are "sensor/<id>", "catchment/<id>" and
//     "session/<id>" (see the Topic* helpers). One subscription may
//     watch any number of topics; an event published to several topics
//     a subscription watches is delivered exactly once (publishes carry
//     a sequence number, and delivery dedupes on it).
//
//   - Sharded registries. Topics are lock-striped across a power-of-two
//     number of shards by FNV-1a hash, so publishes on different topics
//     never contend on a lock. Within a shard, publishers take a read
//     lock (publishes on the same shard proceed concurrently) and only
//     Subscribe/Cancel take the write lock.
//
//   - Bounded, coalescing, spin-free delivery. Each subscription owns a
//     bounded buffered channel. A publisher that finds the buffer full
//     evicts the oldest queued event to make room for the newest
//     ("newest wins") and counts the eviction — the broker's proven
//     coalescing semantics. Because each subscription's producer side is
//     serialised by its own mutex, eviction needs at most one receive
//     and one send: there is no retry loop, and a publisher can never
//     spin against an actively draining consumer.
//
// A dropped (coalesced) event therefore always means "superseded by a
// newer one", never "the newest state was lost": after any publish
// completes, the newest event is in the subscriber's queue.
package push

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/metrics"
)

// Common errors.
var (
	// ErrClosed indicates use of a closed hub or subscription.
	ErrClosed = errors.New("push: closed")
	// ErrBadSubscription indicates invalid Subscribe arguments.
	ErrBadSubscription = errors.New("push: invalid subscription")
)

// Topic namespace helpers. Topics are plain strings; these fix the
// conventional spellings so publishers and subscribers agree.

// TopicSensor is the per-sensor topic for one device's readings.
func TopicSensor(sensorID string) string { return "sensor/" + sensorID }

// TopicCatchment is the per-catchment topic carrying readings from every
// sensor deployed in that catchment.
func TopicCatchment(catchmentID string) string { return "catchment/" + catchmentID }

// TopicSession is the per-session topic for Resource Broker updates.
func TopicSession(sessionID string) string { return "session/" + sessionID }

// TopicAllSensors is the firehose topic carrying every reading from
// every sensor.
const TopicAllSensors = "sensors"

// Defaults.
const (
	// DefaultShards is the registry stripe count. 16 striped locks keep
	// publishes on distinct topics contention-free for the deployment
	// sizes the observatory simulates (tens of topics, thousands of
	// subscribers) while costing only 16 small maps when idle; see
	// DESIGN.md §9 for the rationale and the measurement.
	DefaultShards = 16
	// DefaultQueue is the per-subscriber queue capacity used when
	// Subscribe is given a non-positive one.
	DefaultQueue = 16
)

// Hub fans events of type T out from publishers to topic subscribers.
type Hub[T any] struct {
	shards  []shard[T]
	publish *metrics.Histogram
	mask    uint32
	seq     atomic.Uint64 // publish sequence; dedupes multi-topic delivery
	subs    atomic.Int64  // live subscriptions
	closed  atomic.Bool
}

// shard is one lock stripe of the topic registry.
type shard[T any] struct {
	mu     sync.RWMutex
	topics map[string]map[*Subscription[T]]struct{}

	published *metrics.Counter // publish×topic pairs routed to this shard
	delivered *metrics.Counter // events enqueued on a subscriber
	coalesced *metrics.Counter // oldest-evictions on full subscriber queues
}

// NewHub returns a hub of DefaultShards stripes whose instruments are
// registered in reg under the label hub="<hub>" (a nil reg keeps them
// private). Registration is get-or-create and re-registering a callback
// gauge replaces it, so an owner that replaces its hub on restart (the
// sensor network's Stop installs a fresh hub) keeps cumulative counters
// and gauges that follow the newest hub.
func NewHub[T any](reg *metrics.Registry, hub string) *Hub[T] {
	h := &Hub[T]{
		shards: make([]shard[T], DefaultShards),
		publish: reg.Histogram("evop_push_publish_seconds",
			"Publish-to-enqueue time of one hub publish across all its topics.",
			metrics.DurationScale, metrics.L("hub", hub)),
		mask: DefaultShards - 1,
	}
	for i := range h.shards {
		sh := &h.shards[i]
		labels := []metrics.Label{metrics.L("hub", hub), metrics.L("shard", strconv.Itoa(i))}
		sh.topics = make(map[string]map[*Subscription[T]]struct{})
		sh.published = reg.Counter("evop_push_published_total",
			"Publish×topic pairs routed to this shard.", labels...)
		sh.delivered = reg.Counter("evop_push_delivered_total",
			"Events enqueued on subscribers.", labels...)
		sh.coalesced = reg.Counter("evop_push_coalesced_total",
			"Oldest-evictions on full subscriber queues.", labels...)
		reg.GaugeFunc("evop_push_topics", "Distinct topics registered on this shard.",
			func() float64 { t, _ := sh.sizes(); return float64(t) }, labels...)
		reg.GaugeFunc("evop_push_registrations", "(topic, subscription) pairs on this shard.",
			func() float64 { _, r := sh.sizes(); return float64(r) }, labels...)
	}
	reg.GaugeFunc("evop_push_subscribers", "Live subscriptions on the hub.",
		func() float64 { return float64(h.Subscribers()) }, metrics.L("hub", hub))
	return h
}

// shardFor stripes a topic by FNV-1a hash.
func (h *Hub[T]) shardFor(topic string) *shard[T] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	hash := uint32(offset32)
	for i := 0; i < len(topic); i++ {
		hash ^= uint32(topic[i])
		hash *= prime32
	}
	return &h.shards[hash&h.mask]
}

// Subscription is one subscriber's bounded, coalescing event queue.
type Subscription[T any] struct {
	hub    *Hub[T]
	topics []string

	mu      sync.Mutex // serialises producers; guards closed and ch lifecycle
	ch      chan T
	closed  bool
	lastSeq uint64
	dropped uint64
}

// Subscribe registers a subscriber for the given topics with a bounded
// queue of the given capacity (non-positive selects DefaultQueue).
func (h *Hub[T]) Subscribe(queue int, topics ...string) (*Subscription[T], error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("no topics: %w", ErrBadSubscription)
	}
	for _, t := range topics {
		if t == "" {
			return nil, fmt.Errorf("empty topic: %w", ErrBadSubscription)
		}
	}
	if h.closed.Load() {
		return nil, fmt.Errorf("subscribe: %w", ErrClosed)
	}
	if queue <= 0 {
		queue = DefaultQueue
	}
	s := &Subscription[T]{
		hub:    h,
		topics: append([]string(nil), topics...),
		ch:     make(chan T, queue),
	}
	for _, t := range s.topics {
		sh := h.shardFor(t)
		sh.mu.Lock()
		set := sh.topics[t]
		if set == nil {
			set = make(map[*Subscription[T]]struct{})
			sh.topics[t] = set
		}
		set[s] = struct{}{}
		sh.mu.Unlock()
	}
	h.subs.Add(1)
	// A CloseAll that raced with registration closes this subscription
	// too; re-check so it cannot be stranded open on a closed hub.
	if h.closed.Load() {
		h.remove(s)
		s.close()
		return nil, fmt.Errorf("subscribe: %w", ErrClosed)
	}
	return s, nil
}

// C is the subscriber's event channel. It closes when the subscription
// is canceled or the hub shuts down; buffered events remain readable
// after close.
func (s *Subscription[T]) C() <-chan T { return s.ch }

// Dropped reports how many of this subscriber's queued events were
// evicted to make room for newer ones.
func (s *Subscription[T]) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cancel unsubscribes: the subscription is removed from every topic and
// its channel is closed (buffered events stay readable). Idempotent.
func (s *Subscription[T]) Cancel() {
	s.hub.remove(s)
	if s.close() {
		s.hub.subs.Add(-1)
	}
}

// close marks the subscription closed and closes its channel, reporting
// whether this call was the one that closed it.
func (s *Subscription[T]) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	close(s.ch)
	return true
}

// deliver enqueues one event, evicting the oldest queued event if the
// queue is full. It reports what happened so the shard can count it.
// Events are deduped on seq so a multi-topic publish arrives once.
func (s *Subscription[T]) deliver(seq uint64, v T) (delivered, coalesced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.lastSeq == seq {
		return false, false
	}
	s.lastSeq = seq
	select {
	case s.ch <- v:
		return true, false
	default:
	}
	// Queue full at the instant of the failed send. Evict the oldest to
	// make room; if the consumer drained concurrently there is room
	// already. Either way the queue is now below capacity, and holding
	// s.mu means nobody else can fill it, so the second send cannot
	// fail — one receive, one send, no retry loop.
	select {
	case <-s.ch:
		s.dropped++
		coalesced = true
	default:
	}
	select {
	case s.ch <- v:
	default:
		// Unreachable while s.mu serialises producers; tolerate rather
		// than block if that invariant is ever broken.
		return false, coalesced
	}
	return true, coalesced
}

// remove deregisters a subscription from every shard it appears in.
func (h *Hub[T]) remove(s *Subscription[T]) {
	for _, t := range s.topics {
		sh := h.shardFor(t)
		sh.mu.Lock()
		if set, ok := sh.topics[t]; ok {
			delete(set, s)
			if len(set) == 0 {
				delete(sh.topics, t)
			}
		}
		sh.mu.Unlock()
	}
}

// Publish fans one event out to every subscription watching any of the
// given topics, delivering at most once per subscription. It never
// blocks: a full subscriber queue coalesces (oldest evicted, eviction
// counted) and a closed hub drops the event. It returns how many
// subscribers received the event.
func (h *Hub[T]) Publish(v T, topics ...string) int {
	if h.closed.Load() || len(topics) == 0 {
		return 0
	}
	start := time.Now()
	seq := h.seq.Add(1)
	n := 0
	for _, t := range topics {
		sh := h.shardFor(t)
		sh.published.Inc()
		sh.mu.RLock()
		for s := range sh.topics[t] {
			delivered, coalesced := s.deliver(seq, v)
			if delivered {
				sh.delivered.Inc()
				n++
			}
			if coalesced {
				sh.coalesced.Inc()
			}
		}
		sh.mu.RUnlock()
	}
	// Publish-to-enqueue latency: how long the newest event took to reach
	// every subscriber queue. Lock-free, 0 allocs — safe on the hot path.
	h.publish.RecordSince(start)
	return n
}

// CloseAll cancels every subscription and stops future publishes and
// subscribes. Its counters stay registered, but the hub is inert.
func (h *Hub[T]) CloseAll() {
	h.closed.Store(true)
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		var all []*Subscription[T]
		for _, set := range sh.topics {
			for s := range set {
				all = append(all, s)
			}
		}
		sh.topics = make(map[string]map[*Subscription[T]]struct{})
		sh.mu.Unlock()
		// Close outside the shard lock: close takes s.mu, which a
		// publisher may hold while waiting for... nothing from us, but
		// keeping lock scopes disjoint keeps the ordering trivial.
		for _, s := range all {
			if s.close() {
				h.subs.Add(-1)
			}
		}
	}
}

// Subscribers returns the number of live subscriptions.
func (h *Hub[T]) Subscribers() int { return int(h.subs.Load()) }

// sizes counts the shard's distinct topics and (topic, subscription)
// pairs.
func (sh *shard[T]) sizes() (topics, registrations int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, set := range sh.topics {
		registrations += len(set)
	}
	return len(sh.topics), registrations
}
