// Package runcache provides the serving-side half of the model-execution
// fast path: a bounded, LRU-evicted result cache with singleflight-style
// request coalescing. The paper's streamlined execution bundles are
// pre-computed model+data artifacts served cheaply to many users; this
// cache is the in-process analogue — identical (catchment, scenario,
// params, storm window) requests cost one simulation no matter how many
// users press "run", and concurrent duplicates share a single in-flight
// computation instead of stampeding the model kernel.
//
// Do is context-aware, with request-scoped lifecycle semantics designed
// for interactive serving: a caller whose context ends stops waiting
// immediately (outcome Canceled) without killing the shared flight, the
// computation itself runs detached from any single caller's context, and
// only when *every* waiter has abandoned a flight is its computation
// context cancelled — so one browser disconnecting never steals the
// result from the classmates still watching, while a run nobody wants
// any more stops burning CPU.
//
// Built on the standard library only (container/list + sync), it is
// deliberately generic so other expensive observatory products (terrain
// derivations, quality runs) can adopt it.
package runcache

import (
	"container/list"
	"context"
	"sync"

	"evop/internal/metrics"
)

// Outcome classifies how a Do call was satisfied.
type Outcome int

// Do outcomes.
const (
	// Miss means this call started the computation of the value.
	Miss Outcome = iota
	// Hit means the value was already cached.
	Hit
	// Coalesced means the call piggybacked on another caller's
	// in-flight computation of the same key.
	Coalesced
	// Canceled means the caller's context ended before the value was
	// available; the caller stopped waiting (the flight itself is only
	// cancelled once every waiter has gone).
	Canceled
)

// String renders the outcome for headers and logs.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case Canceled:
		return "canceled"
	default:
		return "miss"
	}
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts calls answered from cache, Misses counts computations
	// started, Coalesced counts calls that joined a shared in-flight
	// computation.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Canceled counts callers whose context ended before their value was
	// available (a leader or follower that stopped waiting).
	Canceled int64 `json:"canceled"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// StaleHits counts degraded lookups answered from the family index.
	StaleHits int64 `json:"staleHits"`
	// Size is the current number of cached entries.
	Size int `json:"size"`
}

// Cache is a bounded LRU cache with request coalescing. The zero value
// is not usable; construct with New. All methods are safe for concurrent
// use. Cached values are shared between callers — treat them as
// immutable.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*flight[V]
	gen      uint64 // bumped by Purge to drop stale in-flight results

	// The family index is the degradation fallback: the last completed
	// value per family key (a request identity minus its volatile
	// parameters), kept in its own LRU so a saturated serving path can
	// answer stale-but-marked instead of shedding. Purge clears it —
	// a result invalidated for the primary cache is invalidated as a
	// fallback too.
	fams     *list.List
	byFamily map[string]*list.Element

	hits, misses, coalesced, canceled, evictions, staleHits *metrics.Counter
}

type entry[V any] struct {
	key string
	val V
}

// famEntry is one family's freshest completed value.
type famEntry[V any] struct {
	family string
	val    V
}

// flight is one in-progress computation. Its lifecycle is reference-
// counted: every Do call waiting on it holds one reference, and when the
// last waiter leaves before completion the flight's context is cancelled
// and the flight is unpublished so a later Do starts fresh.
type flight[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// New returns a cache holding at most capacity entries; capacities below
// one are raised to one. Its outcome counters are registered in reg as
// evop_runcache_*_total, beside an evop_runcache_entries size gauge (nil
// keeps them private).
func New[V any](capacity int, reg *metrics.Registry) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
		fams:     list.New(),
		byFamily: make(map[string]*list.Element),
		hits: reg.Counter("evop_runcache_hits_total",
			"Run-cache lookups served from a cached result."),
		misses: reg.Counter("evop_runcache_misses_total",
			"Run-cache lookups that started a new computation."),
		coalesced: reg.Counter("evop_runcache_coalesced_total",
			"Run-cache lookups that joined an in-flight computation."),
		canceled: reg.Counter("evop_runcache_canceled_total",
			"Run-cache waits abandoned by caller context cancellation."),
		evictions: reg.Counter("evop_runcache_evictions_total",
			"Run-cache entries evicted at capacity."),
		staleHits: reg.Counter("evop_runcache_stale_hits_total",
			"Degraded lookups served from the stale family index."),
	}
	reg.GaugeFunc("evop_runcache_entries", "Run-cache entries currently cached.",
		func() float64 { return float64(c.Len()) })
	return c
}

// Do returns the cached value for key, or computes it with compute. At
// most one compute runs per key at a time: concurrent callers of the
// same key block and share the single computation's result (including
// its error). Errors are returned but never cached, so a later call
// retries.
//
// compute receives a context owned by the flight, not by any single
// caller: it carries ctx's values but is only cancelled once every
// caller waiting on the flight has gone. If ctx ends while this call is
// waiting, Do returns promptly with outcome Canceled and ctx's error;
// other waiters (and the computation, if any remain) are unaffected.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func(ctx context.Context) (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		val := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return val, Hit, nil
	}
	if err := ctx.Err(); err != nil {
		// Never start or join a flight on behalf of a dead request.
		c.canceled.Inc()
		c.mu.Unlock()
		var zero V
		return zero, Canceled, err
	}
	if fl, ok := c.inflight[key]; ok {
		fl.waiters++
		c.coalesced.Inc()
		c.mu.Unlock()
		return c.wait(ctx, key, fl, Coalesced)
	}

	// Leader: publish a flight and compute detached, under a context that
	// inherits ctx's values but survives ctx's cancellation for as long
	// as any waiter remains.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl := &flight[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[key] = fl
	c.misses.Inc()
	gen := c.gen
	c.mu.Unlock()

	go func() {
		val, err := compute(fctx)
		c.mu.Lock()
		fl.val, fl.err = val, err
		// A replacement flight may have been published after this one was
		// abandoned; only unpublish ourselves.
		if c.inflight[key] == fl {
			delete(c.inflight, key)
		}
		// Discard results computed against state invalidated by Purge.
		if err == nil && gen == c.gen {
			c.store(key, val)
		}
		c.mu.Unlock()
		cancel()
		close(fl.done)
	}()

	return c.wait(ctx, key, fl, Miss)
}

// wait blocks until the flight completes or ctx ends, releasing the
// caller's reference on the flight in the latter case.
func (c *Cache[V]) wait(ctx context.Context, key string, fl *flight[V], outcome Outcome) (V, Outcome, error) {
	select {
	case <-fl.done:
		return fl.val, outcome, fl.err
	case <-ctx.Done():
		c.mu.Lock()
		fl.waiters--
		if fl.waiters == 0 {
			// Nobody wants this result any more: stop the computation and
			// unpublish the flight so a later identical request starts
			// fresh instead of joining a dying one.
			fl.cancel()
			if c.inflight[key] == fl {
				delete(c.inflight, key)
			}
		}
		c.canceled.Inc()
		c.mu.Unlock()
		var zero V
		return zero, Canceled, ctx.Err()
	}
}

// DoFamily is Do, additionally recording the completed value as its
// family's freshest result. The family key groups request variants
// whose results are acceptable substitutes for one another under
// degradation (e.g. same catchment+model+scenario, any storm window) —
// see Stale.
func (c *Cache[V]) DoFamily(ctx context.Context, key, family string, compute func(ctx context.Context) (V, error)) (V, Outcome, error) {
	val, outcome, err := c.Do(ctx, key, compute)
	if err == nil && outcome != Canceled {
		c.mu.Lock()
		c.storeFamily(family, val)
		c.mu.Unlock()
	}
	return val, outcome, err
}

// Stale returns the family's last completed value, if any — the
// stale-but-marked answer a saturated serving path prefers over a 503.
// A hit refreshes the family's recency and counts toward StaleHits.
func (c *Cache[V]) Stale(family string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byFamily[family]; ok {
		c.fams.MoveToFront(el)
		c.staleHits.Inc()
		return el.Value.(*famEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// storeFamily upserts the family's freshest value under c.mu, bounding
// the index by the cache capacity.
func (c *Cache[V]) storeFamily(family string, val V) {
	if el, ok := c.byFamily[family]; ok {
		el.Value.(*famEntry[V]).val = val
		c.fams.MoveToFront(el)
		return
	}
	c.byFamily[family] = c.fams.PushFront(&famEntry[V]{family: family, val: val})
	for c.fams.Len() > c.capacity {
		oldest := c.fams.Back()
		c.fams.Remove(oldest)
		delete(c.byFamily, oldest.Value.(*famEntry[V]).family)
	}
}

// Get returns the cached value without computing, refreshing its
// recency on a hit. It does not touch the hit/miss counters.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// store inserts under c.mu, evicting from the LRU tail past capacity.
func (c *Cache[V]) store(key string, val V) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry[V]).key)
		c.evictions.Inc()
	}
}

// Purge drops every cached entry and marks in-flight computations stale
// so their results are returned to waiters but not stored. Counters are
// preserved. Call it when an input outside the key space changes (e.g. a
// dataset re-upload).
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byKey)
	c.fams.Init()
	clear(c.byFamily)
	c.gen++
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      int64(c.hits.Value()),
		Misses:    int64(c.misses.Value()),
		Coalesced: int64(c.coalesced.Value()),
		Canceled:  int64(c.canceled.Value()),
		Evictions: int64(c.evictions.Value()),
		StaleHits: int64(c.staleHits.Value()),
		Size:      c.ll.Len(),
	}
}
