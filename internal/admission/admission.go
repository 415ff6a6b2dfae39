// Package admission is the observatory portal's front door: it decides,
// before any handler runs, whether a request is admitted, queued briefly,
// degraded, or shed. The paper's goal of widening participation means the
// portal faces unvetted public traffic — a flood event sends a flash
// crowd to one catchment dashboard — and without admission control that
// crowd starves exactly the traffic that matters most during a flood:
// sensor ingest and live telemetry.
//
// Three mechanisms compose, all stdlib-only, clock.Clock-driven and
// deterministic under a simulated clock:
//
//   - A per-client token-bucket rate limiter with lazy refill (tokens
//     accrue arithmetically from the elapsed time at the next request —
//     no background filler goroutine) and an LRU-bounded client table so
//     an open portal cannot be grown into unbounded memory by address
//     churn.
//
//   - An adaptive concurrency limiter: one global limit adjusted by AIMD
//     on the worst per-route p95 latency over the last adaptation
//     interval, read as snapshot deltas from the existing request-latency
//     histograms. Latency above target multiplies the limit down;
//     headroom adds a small step back. The limiter therefore needs no
//     model of handler cost — it discovers capacity from observed tails.
//
//   - Priority classes. Each class may occupy only a fraction of the
//     current limit (Ingest 100%, Live 85%, Model 70%, Bulk 50%), so as
//     load rises the classes saturate in reverse priority order: bulk
//     WPS jobs shed first, fresh model runs next, live reads after, and
//     ingest last — it alone may use the slots the other classes cannot
//     touch, so it is never starved by a crowd of readers.
//
// Saturated requests may wait in a small bounded FIFO per class, honoring
// the request context's deadline plus a hard queue timeout; everything
// else is shed with a machine-readable signal the portal maps to 429/503
// + Retry-After. The admit/release hot path is a single mutex hold with
// zero allocations.
package admission

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
)

// Class orders request families by how reluctantly the portal sheds
// them. Lower values shed last.
type Class uint8

// Priority classes, highest priority first.
const (
	// Ingest is observation ingest (SOS InsertObservation, dataset
	// uploads): losing it loses data, so it may use the full limit.
	Ingest Class = iota
	// Live is interactive reads — live telemetry, cached widget reads,
	// sensor series, session traffic.
	Live
	// Model is fresh model-run computation (quality, low-flow, storm
	// window included).
	Model
	// Bulk is batch work: WPS execute, workflow runs, exports.
	Bulk

	// NumClasses is the number of priority classes.
	NumClasses = 4
)

// classNames are the metric label values, indexed by Class.
var classNames = [NumClasses]string{"ingest", "live", "model", "bulk"}

// classFraction is the share of the adaptive limit each class may
// occupy. Strictly decreasing with class value, so saturation always
// sheds in reverse priority order, and only Ingest may use the whole
// limit — the headroom above 85% is its reserve.
var classFraction = [NumClasses]float64{1.00, 0.85, 0.70, 0.50}

// String returns the class's metric label value.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Shed signals, mapped by the portal to HTTP statuses.
var (
	// ErrRateLimited means the per-client token bucket is empty (HTTP
	// 429). The retry hint says when one token will have refilled.
	ErrRateLimited = errors.New("admission: client rate limit exceeded")
	// ErrSaturated means the class's share of the concurrency limit is
	// exhausted and the request could not (or would not) wait (HTTP 503).
	ErrSaturated = errors.New("admission: concurrency limit saturated")
)

// Config tunes a Controller. The zero value of any field selects the
// default noted on it; Validate rejects nonsensical explicit values.
type Config struct {
	// Clock drives refill arithmetic, adaptation intervals and queue
	// timeouts. Defaults to the real clock.
	Clock clock.Clock
	// Metrics receives the evop_admission_* series. Nil keeps the
	// instruments private (they still work).
	Metrics *metrics.Registry

	// MinLimit and MaxLimit clamp the adaptive concurrency limit
	// (defaults 4 and 1024); InitialLimit is its starting point
	// (default 64).
	MinLimit     int
	MaxLimit     int
	InitialLimit int
	// TargetP95 is the latency objective: an adaptation interval whose
	// worst per-route p95 exceeds it cuts the limit multiplicatively
	// (default 500ms).
	TargetP95 time.Duration
	// IncreaseStep is the additive limit increase per healthy interval
	// (default 4). DecreaseFactor is the multiplicative cut on breach,
	// in (0,1) (default 0.7).
	IncreaseStep   float64
	DecreaseFactor float64
	// AdaptEvery is the minimum spacing between adaptations; the check
	// rides on the admit/release path, so no background goroutine is
	// needed (default 5s).
	AdaptEvery time.Duration

	// QueueDepth bounds each class's FIFO wait queue (default 64).
	// QueueTimeout caps how long a queued request waits for a slot
	// before being shed, independent of its context deadline
	// (default 2s).
	QueueDepth   int
	QueueTimeout time.Duration

	// RatePerSecond and Burst shape every client's token bucket
	// (defaults 200 req/s, burst 2000). RatePerSecond <= 0 after
	// defaulting is rejected; use a huge rate to effectively disable.
	RatePerSecond float64
	Burst         float64
	// MaxClients bounds the client table; the least recently seen
	// bucket is evicted past it (default 4096).
	MaxClients int

	// RetryAfter is the hint returned with saturation sheds
	// (default 1s).
	RetryAfter time.Duration
	// LiveConnLimit caps concurrent /ws/live connections; enforced by
	// the portal pre-upgrade (default 256).
	LiveConnLimit int
}

// Defaults for Config's zero fields.
const (
	DefaultMinLimit      = 4
	DefaultMaxLimit      = 1024
	DefaultInitialLimit  = 64
	DefaultTargetP95     = 500 * time.Millisecond
	DefaultIncreaseStep  = 4
	DefaultDecrease      = 0.7
	DefaultAdaptEvery    = 5 * time.Second
	DefaultQueueDepth    = 64
	DefaultQueueTimeout  = 2 * time.Second
	DefaultRate          = 200
	DefaultBurst         = 2000
	DefaultMaxClients    = 4096
	DefaultRetryAfter    = time.Second
	DefaultLiveConnLimit = 256
)

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.MinLimit == 0 {
		cfg.MinLimit = DefaultMinLimit
	}
	if cfg.MaxLimit == 0 {
		cfg.MaxLimit = DefaultMaxLimit
	}
	if cfg.InitialLimit == 0 {
		cfg.InitialLimit = DefaultInitialLimit
	}
	if cfg.InitialLimit < cfg.MinLimit {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.TargetP95 == 0 {
		cfg.TargetP95 = DefaultTargetP95
	}
	if cfg.IncreaseStep == 0 {
		cfg.IncreaseStep = DefaultIncreaseStep
	}
	if cfg.DecreaseFactor == 0 {
		cfg.DecreaseFactor = DefaultDecrease
	}
	if cfg.AdaptEvery == 0 {
		cfg.AdaptEvery = DefaultAdaptEvery
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.RatePerSecond == 0 {
		cfg.RatePerSecond = DefaultRate
	}
	if cfg.Burst == 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.LiveConnLimit == 0 {
		cfg.LiveConnLimit = DefaultLiveConnLimit
	}
	return cfg
}

// Validate rejects a config whose explicit values are unusable. It is
// called on the defaulted config by New.
func (cfg Config) Validate() error {
	switch {
	case cfg.MinLimit < 1:
		return fmt.Errorf("admission: MinLimit %d < 1", cfg.MinLimit)
	case cfg.MaxLimit < cfg.MinLimit:
		return fmt.Errorf("admission: MaxLimit %d < MinLimit %d", cfg.MaxLimit, cfg.MinLimit)
	case cfg.TargetP95 < 0:
		return fmt.Errorf("admission: negative TargetP95 %v", cfg.TargetP95)
	case cfg.IncreaseStep < 0:
		return fmt.Errorf("admission: negative IncreaseStep %v", cfg.IncreaseStep)
	case cfg.DecreaseFactor <= 0 || cfg.DecreaseFactor >= 1:
		return fmt.Errorf("admission: DecreaseFactor %v outside (0,1)", cfg.DecreaseFactor)
	case cfg.QueueDepth < 0:
		return fmt.Errorf("admission: negative QueueDepth %d", cfg.QueueDepth)
	case cfg.QueueTimeout < 0:
		return fmt.Errorf("admission: negative QueueTimeout %v", cfg.QueueTimeout)
	case cfg.RatePerSecond <= 0:
		return fmt.Errorf("admission: RatePerSecond %v <= 0", cfg.RatePerSecond)
	case cfg.Burst < 1:
		return fmt.Errorf("admission: Burst %v < 1", cfg.Burst)
	case cfg.MaxClients < 1:
		return fmt.Errorf("admission: MaxClients %d < 1", cfg.MaxClients)
	case cfg.LiveConnLimit < 1:
		return fmt.Errorf("admission: LiveConnLimit %d < 1", cfg.LiveConnLimit)
	}
	return nil
}

// Shed reasons, the "reason" label on evop_admission_shed_total.
const (
	reasonRate = iota
	reasonCapacity
	reasonTimeout
	numReasons
)

var reasonNames = [numReasons]string{"rate", "capacity", "timeout"}

// bucket is one client's token bucket. Tokens refill lazily: the deficit
// since last is repaid from elapsed time on the next request.
type bucket struct {
	key    string
	tokens float64
	last   time.Time
}

// waiter is one queued request. granted and abandoned are guarded by the
// controller mutex; ch is closed exactly once, on grant.
type waiter struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

// probe is one watched latency histogram and the snapshot at the last
// adaptation, so each interval is judged on its own delta.
type probe struct {
	hist *metrics.Histogram
	prev metrics.HistogramSnapshot
}

// Controller is the admission gate. All state sits under one mutex; the
// admit/release fast path holds it for a map lookup, a handful of float
// operations and counter bumps — zero allocations.
type Controller struct {
	cfg Config
	clk clock.Clock

	mu        sync.Mutex
	limit     float64
	total     int
	inflight  [NumClasses]int
	queues    [NumClasses][]*waiter
	queued    [NumClasses]int // live (non-abandoned) waiters per class
	byClient  map[string]*list.Element
	lru       *list.List // front = most recently seen client
	probes    []*probe
	lastAdapt time.Time

	admitted    [NumClasses]*metrics.Counter
	shed        [NumClasses][numReasons]*metrics.Counter
	queuedTotal [NumClasses]*metrics.Counter
	queueDepth  [NumClasses]*metrics.Gauge
	inflightG   [NumClasses]*metrics.Gauge
	limitG      *metrics.Gauge
	clientsG    *metrics.Gauge
}

// New builds a Controller from cfg (zero fields defaulted, then
// validated).
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		clk:       cfg.Clock,
		limit:     float64(cfg.InitialLimit),
		byClient:  make(map[string]*list.Element),
		lru:       list.New(),
		lastAdapt: cfg.Clock.Now(),
	}
	reg := cfg.Metrics
	for cl := Class(0); cl < NumClasses; cl++ {
		lab := metrics.L("class", cl.String())
		c.admitted[cl] = reg.Counter("evop_admission_admitted_total",
			"Requests granted a concurrency slot, by priority class.", lab)
		for r := 0; r < numReasons; r++ {
			c.shed[cl][r] = reg.Counter("evop_admission_shed_total",
				"Requests shed by the admission gate, by class and reason.",
				lab, metrics.L("reason", reasonNames[r]))
		}
		c.queuedTotal[cl] = reg.Counter("evop_admission_queued_total",
			"Requests that waited in the admission queue, by class.", lab)
		c.queueDepth[cl] = reg.Gauge("evop_admission_queue_depth",
			"Requests currently waiting for a concurrency slot, by class.", lab)
		c.inflightG[cl] = reg.Gauge("evop_admission_in_flight",
			"Concurrency slots currently held, by class.", lab)
	}
	c.limitG = reg.Gauge("evop_admission_limit",
		"Current AIMD concurrency limit.")
	c.limitG.Set(int64(c.limit))
	c.clientsG = reg.Gauge("evop_admission_clients",
		"Token-bucket client table size.")
	return c, nil
}

// RetryHint is the Retry-After duration the portal attaches to
// saturation sheds and the live-connection cap.
func (c *Controller) RetryHint() time.Duration { return c.cfg.RetryAfter }

// LiveConnLimit is the configured /ws/live connection cap.
func (c *Controller) LiveConnLimit() int { return c.cfg.LiveConnLimit }

// Limit returns the current adaptive concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.limit)
}

// InFlight returns the total concurrency slots currently held.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// limitFor is class cl's slot ceiling under the current limit.
func (c *Controller) limitFor(cl Class) int {
	return int(c.limit * classFraction[cl])
}

// grantLocked hands cl one slot.
func (c *Controller) grantLocked(cl Class) {
	c.inflight[cl]++
	c.total++
	c.admitted[cl].Inc()
	c.inflightG[cl].Add(1)
}

// releaseLocked returns cl's slot and promotes any waiter the freed slot
// (or a freshly raised limit) can now serve.
func (c *Controller) releaseLocked(cl Class) {
	c.inflight[cl]--
	c.total--
	c.inflightG[cl].Add(-1)
	c.promoteLocked()
}

// promoteLocked grants queued waiters in priority order while slots
// remain under each class's ceiling. Abandoned waiters are discarded in
// passing.
func (c *Controller) promoteLocked() {
	for cl := Class(0); cl < NumClasses; cl++ {
		q := c.queues[cl]
		for len(q) > 0 {
			w := q[0]
			if w.abandoned {
				q = q[1:]
				continue
			}
			if c.total >= c.limitFor(cl) {
				break
			}
			q = q[1:]
			c.queued[cl]--
			c.queueDepth[cl].Add(-1)
			w.granted = true
			c.grantLocked(cl)
			close(w.ch)
		}
		c.queues[cl] = q
	}
}

// Admit gates one request of class cl from the given client. On success
// it returns (0, nil) and the caller owes Release(cl). When the class is
// saturated the request waits in the class FIFO until a slot frees, the
// queue timeout fires, or ctx ends. A shed returns ErrRateLimited or
// ErrSaturated (or ctx's error) plus a Retry-After hint.
func (c *Controller) Admit(ctx context.Context, cl Class, client string) (time.Duration, error) {
	c.mu.Lock()
	now := c.clk.Now()
	if retry, ok := c.allowLocked(client, now); !ok {
		c.shed[cl][reasonRate].Inc()
		c.mu.Unlock()
		return retry, ErrRateLimited
	}
	c.maybeAdaptLocked(now)
	if c.total < c.limitFor(cl) && c.queued[cl] == 0 {
		c.grantLocked(cl)
		c.mu.Unlock()
		return 0, nil
	}
	if c.cfg.QueueDepth <= 0 || c.queued[cl] >= c.cfg.QueueDepth {
		c.shed[cl][reasonCapacity].Inc()
		c.mu.Unlock()
		return c.cfg.RetryAfter, ErrSaturated
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return c.cfg.RetryAfter, err
	}
	w := &waiter{ch: make(chan struct{})}
	c.queues[cl] = append(c.queues[cl], w)
	c.queued[cl]++
	c.queuedTotal[cl].Inc()
	c.queueDepth[cl].Add(1)
	c.mu.Unlock()

	timeout := c.clk.After(c.cfg.QueueTimeout)
	select {
	case <-w.ch:
		return 0, nil
	case <-timeout:
		if c.abandonOrKeep(cl, w) {
			return 0, nil
		}
		c.shed[cl][reasonTimeout].Inc()
		return c.cfg.RetryAfter, ErrSaturated
	case <-ctx.Done():
		if c.abandonOrKeep(cl, w) {
			// Granted in the same instant the context died: the handler
			// must not run, so hand the slot straight back.
			c.mu.Lock()
			c.releaseLocked(cl)
			c.mu.Unlock()
		} else {
			c.shed[cl][reasonTimeout].Inc()
		}
		return c.cfg.RetryAfter, ctx.Err()
	}
}

// abandonOrKeep resolves a waiter that stopped waiting: it reports true
// if the waiter had already been granted a slot (the caller now owns
// it), otherwise marks it abandoned for promoteLocked to discard.
func (c *Controller) abandonOrKeep(cl Class, w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		return true
	}
	w.abandoned = true
	c.queued[cl]--
	c.queueDepth[cl].Add(-1)
	return false
}

// TryAdmit is Admit without the queue: it either grants a slot now or
// sheds. The portal uses it on degradable routes, where a saturated
// request should fall back immediately instead of waiting.
func (c *Controller) TryAdmit(cl Class, client string) (time.Duration, error) {
	c.mu.Lock()
	now := c.clk.Now()
	if retry, ok := c.allowLocked(client, now); !ok {
		c.shed[cl][reasonRate].Inc()
		c.mu.Unlock()
		return retry, ErrRateLimited
	}
	c.maybeAdaptLocked(now)
	if c.total < c.limitFor(cl) && c.queued[cl] == 0 {
		c.grantLocked(cl)
		c.mu.Unlock()
		return 0, nil
	}
	c.shed[cl][reasonCapacity].Inc()
	c.mu.Unlock()
	return c.cfg.RetryAfter, ErrSaturated
}

// AllowRate applies only the per-client rate limit — no concurrency
// slot, no Release owed. WebSocket upgrades use it: a live connection
// can outlast thousands of requests, so holding a slot for its lifetime
// would wedge the limiter.
func (c *Controller) AllowRate(cl Class, client string) (time.Duration, error) {
	c.mu.Lock()
	now := c.clk.Now()
	retry, ok := c.allowLocked(client, now)
	if !ok {
		c.shed[cl][reasonRate].Inc()
	}
	c.mu.Unlock()
	if !ok {
		return retry, ErrRateLimited
	}
	return 0, nil
}

// Release returns the slot granted by a successful Admit/TryAdmit and
// gives the adaptation check a chance to run.
func (c *Controller) Release(cl Class) {
	c.mu.Lock()
	c.releaseLocked(cl)
	c.maybeAdaptLocked(c.clk.Now())
	c.mu.Unlock()
}

// allowLocked consumes one token from client's bucket, lazily refilling
// from the time elapsed since its last request. It returns ok, or the
// duration until one token will have refilled.
func (c *Controller) allowLocked(client string, now time.Time) (time.Duration, bool) {
	el, ok := c.byClient[client]
	if !ok {
		b := &bucket{key: client, tokens: c.cfg.Burst - 1, last: now}
		c.byClient[client] = c.lru.PushFront(b)
		for c.lru.Len() > c.cfg.MaxClients {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.byClient, oldest.Value.(*bucket).key)
		}
		c.clientsG.Set(int64(c.lru.Len()))
		return 0, true
	}
	c.lru.MoveToFront(el)
	b := el.Value.(*bucket)
	// A wall clock stepped backwards must not drain the bucket.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * c.cfg.RatePerSecond
	}
	if b.tokens > c.cfg.Burst {
		b.tokens = c.cfg.Burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	deficit := (1 - b.tokens) / c.cfg.RatePerSecond
	return time.Duration(deficit * float64(time.Second)), false
}

// Watch adds hist to the latency probes driving adaptation. The portal
// registers every gated route's request-latency histogram; WebSocket
// routes are excluded (a hijacked connection's "latency" is its
// lifetime, which would poison the p95).
func (c *Controller) Watch(hist *metrics.Histogram) {
	if hist == nil {
		return
	}
	c.mu.Lock()
	c.probes = append(c.probes, &probe{hist: hist, prev: hist.Snapshot()})
	c.mu.Unlock()
}

// maybeAdaptLocked runs one AIMD step when AdaptEvery has elapsed since
// the last. Riding on the admit/release path keeps the controller free
// of background goroutines and deterministic under a simulated clock.
func (c *Controller) maybeAdaptLocked(now time.Time) {
	if len(c.probes) == 0 || now.Sub(c.lastAdapt) < c.cfg.AdaptEvery {
		return
	}
	c.lastAdapt = now
	c.adaptLocked()
}

// Adapt forces one AIMD step now. Tests use it to drive convergence
// without arranging traffic.
func (c *Controller) Adapt() {
	c.mu.Lock()
	c.lastAdapt = c.clk.Now()
	c.adaptLocked()
	c.mu.Unlock()
}

// adaptLocked is the AIMD rule: judge the interval since the previous
// adaptation by the worst per-probe p95 of that interval's observations;
// cut the limit multiplicatively on breach, step it up additively on
// headroom, and leave it alone when the interval saw no traffic.
func (c *Controller) adaptLocked() {
	worst := 0.0
	var samples uint64
	for _, p := range c.probes {
		cur := p.hist.Snapshot()
		delta := cur.Since(p.prev)
		p.prev = cur
		if delta.Count == 0 {
			continue
		}
		samples += delta.Count
		if q := delta.Quantile(0.95); q > worst {
			worst = q
		}
	}
	if samples == 0 {
		return
	}
	if worst > c.cfg.TargetP95.Seconds() {
		c.limit *= c.cfg.DecreaseFactor
		if c.limit < float64(c.cfg.MinLimit) {
			c.limit = float64(c.cfg.MinLimit)
		}
	} else {
		c.limit += c.cfg.IncreaseStep
		if c.limit > float64(c.cfg.MaxLimit) {
			c.limit = float64(c.cfg.MaxLimit)
		}
	}
	c.limitG.Set(int64(c.limit))
	c.promoteLocked()
}
