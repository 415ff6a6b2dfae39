// Package sched is the shared compute scheduler: one bounded,
// work-stealing worker pool that every CPU-bound fan-out in the
// observatory runs on. The paper singles out Monte Carlo uncertainty
// analysis and multi-model ensembles as the embarrassingly parallel
// workload motivating elastic execution; the HTC-in-clouds line of work
// shows the win comes from a single shared scheduler rather than
// per-workload pools. Before this package, each parallel workload either
// grew its own ad-hoc pool (calibration), ran on one core (FUSE
// ensembles, experiment sweeps) or spawned unbounded goroutines (WPS
// async executions, workflow waves).
//
// Design:
//
//   - A fixed set of workers (default GOMAXPROCS) with per-worker chunked
//     task queues. A worker prefers its own queue and steals from its
//     neighbours when empty, so an uneven batch balances itself.
//   - Two priority classes aligned with the admission controller's
//     ordering: ClassModel (interactive model runs) is always drained
//     before ClassBulk (sweeps, async executions, workflow waves),
//     whichever worker's queue holds it.
//   - The goroutine calling ForEach helps execute its own batch's chunks
//     while it waits. Work submitted from inside a pool task therefore
//     always makes progress, even on a single-worker pool — nested
//     fan-outs (a WPS bulk task running a FUSE ensemble) cannot deadlock.
//   - First task error cancels the batch's remaining chunks; successful
//     outputs are written by index, so results are bit-identical to a
//     sequential loop for any worker count.
//   - TrySubmit runs one standalone task asynchronously, bounded by
//     asyncPerWorker tasks per worker; over-queue submissions are
//     rejected with ErrSaturated rather than queued without limit.
//
// Everything is stdlib-only and observable: evop_sched_tasks_total,
// evop_sched_queue_depth, evop_sched_workers_busy and
// evop_sched_task_seconds land on the shared metrics registry.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"evop/internal/metrics"
)

// Common errors.
var (
	// ErrBadConfig indicates an invalid pool configuration or submission.
	ErrBadConfig = errors.New("sched: invalid configuration")
	// ErrClosed indicates a submission to a closed pool.
	ErrClosed = errors.New("sched: pool closed")
	// ErrSaturated indicates the async task queue is at capacity — the
	// pool's slice of the capacity error taxonomy: the control plane is
	// healthy, the caller should shed or retry later.
	ErrSaturated = errors.New("sched: async task queue saturated")
)

// Class orders work by how reluctantly the pool defers it, mirroring the
// admission controller's model > bulk ordering: interactive model runs
// jump ahead of background sweeps and async executions.
type Class uint8

// Priority classes, highest priority first.
const (
	// ClassModel is interactive model execution (a user pressed "run").
	ClassModel Class = iota
	// ClassBulk is background batch work: calibration sweeps, national
	// aggregations, WPS async executions, workflow waves.
	ClassBulk
	// numClasses is the number of priority classes.
	numClasses = 2
)

// String returns the metric label value.
func (c Class) String() string {
	if c == ClassModel {
		return "model"
	}
	return "bulk"
}

// asyncPerWorker bounds queued-plus-running TrySubmit tasks per worker.
// Batch work (ForEach/Map) is not counted — the submitting caller is
// present and helping, so it is self-bounding.
const asyncPerWorker = 16

// Config parameterises a Pool.
type Config struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives the evop_sched_* instruments; nil keeps them
	// private.
	Metrics *metrics.Registry
}

// chunk is one unit of queued work: either an index range of a batch, or
// a standalone async task (batch nil, fn set, hi-lo == 1).
type chunk struct {
	b      *batch
	lo, hi int
	fn     func()
	class  Class
}

// Pool is the shared worker pool. All methods are safe for concurrent
// use. The zero value is not usable; construct with New.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][numClasses][]chunk // per worker, per class; pushed/popped at the tail, stolen under the same lock
	rr     int                   // round-robin push cursor
	async  int                   // queued + running TrySubmit tasks
	closed bool

	wg sync.WaitGroup // worker goroutines

	tasks   [numClasses]*metrics.Counter
	depth   [numClasses]*metrics.Gauge
	busy    *metrics.Gauge
	latency [numClasses]*metrics.Histogram
}

// New builds and starts a pool. Close releases its workers.
func New(cfg Config) (*Pool, error) {
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		return nil, fmt.Errorf("workers=%d: %w", cfg.Workers, ErrBadConfig)
	}
	p := &Pool{
		workers: workers,
		queues:  make([][numClasses][]chunk, workers),
	}
	p.cond = sync.NewCond(&p.mu)
	reg := cfg.Metrics
	for cl := Class(0); cl < numClasses; cl++ {
		p.tasks[cl] = reg.Counter("evop_sched_tasks_total",
			"Tasks executed by the shared compute pool.", metrics.L("class", cl.String()))
		p.depth[cl] = reg.Gauge("evop_sched_queue_depth",
			"Task chunks queued awaiting a worker.", metrics.L("class", cl.String()))
		p.latency[cl] = reg.Histogram("evop_sched_task_seconds",
			"Per-chunk execution latency on the compute pool.", metrics.DurationScale,
			metrics.L("class", cl.String()))
	}
	p.busy = reg.Gauge("evop_sched_workers_busy",
		"Pool workers currently executing a task.")
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p, nil
}

// Close stops accepting work, lets the workers drain every queued chunk
// (so no batch waiter can hang) and blocks until all worker goroutines
// have exited. Closing twice is safe.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// TrySubmit enqueues one standalone task to run asynchronously under the
// given class. It never blocks: when queued-plus-running async tasks are
// at asyncPerWorker per worker it returns ErrSaturated, and after Close
// it returns ErrClosed. The caller observes completion through its own
// side effects (e.g. a WaitGroup inside fn).
func (p *Pool) TrySubmit(class Class, fn func()) error {
	if fn == nil {
		return fmt.Errorf("nil task: %w", ErrBadConfig)
	}
	if class >= numClasses {
		return fmt.Errorf("class=%d: %w", class, ErrBadConfig)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if limit := asyncPerWorker * p.workers; p.async >= limit {
		n := p.async
		p.mu.Unlock()
		return fmt.Errorf("%d async tasks pending (max %d): %w", n, limit, ErrSaturated)
	}
	p.async++
	p.pushLocked(chunk{fn: fn, lo: 0, hi: 1, class: class})
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

// pushLocked appends a chunk to the next worker's queue (round-robin).
func (p *Pool) pushLocked(c chunk) {
	w := p.rr
	p.rr++
	if p.rr >= p.workers {
		p.rr = 0
	}
	p.queues[w][c.class] = append(p.queues[w][c.class], c)
	p.depth[c.class].Add(1)
}

// pushBatch enqueues every chunk of a batch, spread round-robin across
// the worker queues. It reports false (enqueuing nothing) if the pool
// is already closed.
func (p *Pool) pushBatch(b *batch, n, size int) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		p.pushLocked(chunk{b: b, lo: lo, hi: hi, class: b.class})
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return true
}

// popLocked takes one chunk for worker id: class-major (every model
// chunk anywhere in the pool outranks any bulk chunk), own queue first,
// then stealing from the other workers' tails.
func (p *Pool) popLocked(id int) (chunk, bool) {
	for cl := 0; cl < numClasses; cl++ {
		for off := 0; off < p.workers; off++ {
			v := id + off
			if v >= p.workers {
				v -= p.workers
			}
			q := p.queues[v][cl]
			if len(q) == 0 {
				continue
			}
			c := q[len(q)-1]
			q[len(q)-1] = chunk{} // release the batch and its task
			p.queues[v][cl] = q[:len(q)-1]
			p.depth[cl].Add(-1)
			return c, true
		}
	}
	return chunk{}, false
}

// takeFor removes one queued chunk belonging to batch b, for the
// submitting goroutine's helping loop.
func (p *Pool) takeFor(b *batch) (chunk, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := 0; w < p.workers; w++ {
		q := p.queues[w][b.class]
		for i := len(q) - 1; i >= 0; i-- {
			if q[i].b != b {
				continue
			}
			c := q[i]
			copy(q[i:], q[i+1:])
			q[len(q)-1] = chunk{} // release the batch and its task
			p.queues[w][b.class] = q[:len(q)-1]
			p.depth[b.class].Add(-1)
			return c, true
		}
	}
	return chunk{}, false
}

// worker is one pool goroutine: pop (or steal) a chunk, execute it, park
// when there is nothing to do. On Close it drains the remaining queues
// before exiting, so every accepted chunk runs exactly once.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		c, ok := p.popLocked(id)
		for !ok {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			c, ok = p.popLocked(id)
		}
		p.mu.Unlock()
		p.execute(c)
	}
}

// execute runs one chunk, on a pool worker or a helping submitter.
func (p *Pool) execute(c chunk) {
	p.busy.Add(1)
	start := time.Now()
	if c.b != nil {
		c.b.runChunk(c.lo, c.hi)
	} else {
		c.fn()
		p.mu.Lock()
		p.async--
		p.mu.Unlock()
	}
	p.latency[c.class].RecordSince(start)
	p.tasks[c.class].Add(uint64(c.hi - c.lo))
	p.busy.Add(-1)
}
