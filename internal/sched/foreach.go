package sched

import (
	"context"
	"sync"
)

// batch is one ForEach invocation's shared state: the task function,
// completion tracking and first-error cancellation.
type batch struct {
	class Class
	ctx   context.Context
	fn    func(i int) error
	wg    sync.WaitGroup // one count per chunk

	mu       sync.Mutex
	canceled bool
	errIdx   int
	err      error
}

// stopped reports whether the batch should skip remaining work: a task
// errored or the batch context ended.
func (b *batch) stopped() bool {
	b.mu.Lock()
	canceled := b.canceled
	b.mu.Unlock()
	return canceled || b.ctx.Err() != nil
}

// fail records a task error, keeping the lowest-index one (the error a
// sequential loop would have surfaced among those observed), and cancels
// the batch's remaining chunks.
func (b *batch) fail(i int, err error) {
	b.mu.Lock()
	if b.err == nil || i < b.errIdx {
		b.err, b.errIdx = err, i
	}
	b.canceled = true
	b.mu.Unlock()
}

// firstErr returns the recorded error, if any.
func (b *batch) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// runChunk executes indices [lo,hi) (or fast-skips them after
// cancellation) and releases its completion count. A task error cancels
// the batch; the batch context is polled per index so cancellation does
// not wait for a chunk boundary.
func (b *batch) runChunk(lo, hi int) {
	defer b.wg.Done()
	if b.stopped() {
		return
	}
	for i := lo; i < hi; i++ {
		if b.ctx.Err() != nil {
			return
		}
		if err := b.fn(i); err != nil {
			b.fail(i, err)
			return
		}
	}
}

// ForEach runs fn for every index in [0,n) on p under class, fanning
// chunks out across the pool. It returns after every dispatched chunk
// has finished: either nil, the lowest-index task error observed (the
// first error cancels all remaining chunks), or the context's error.
// Successful side effects written by index are bit-identical to a
// sequential loop regardless of worker count or scheduling.
//
// The calling goroutine helps execute its own batch while it waits, so
// ForEach may be called from inside a pool task (nested fan-out)
// without risk of deadlock. A nil pool runs inline on the calling
// goroutine, and after Close ForEach degrades to the same inline loop.
func ForEach(ctx context.Context, p *Pool, class Class, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p == nil {
		return forEachInline(ctx, n, fn)
	}
	// About eight chunks per worker: enough slack for stealing to
	// balance uneven tasks, few enough sends to stay cheap.
	size := max(n/(p.workers*8), 1)
	chunks := (n + size - 1) / size
	b := &batch{class: class, ctx: ctx, fn: fn}
	b.wg.Add(chunks)
	if !p.pushBatch(b, n, size) {
		// Pool closed under us: nothing was enqueued.
		b.wg.Add(-chunks)
		return forEachInline(ctx, n, fn)
	}
	// Help with our own chunks instead of idling; whatever the workers
	// have already claimed finishes concurrently.
	for {
		c, ok := p.takeFor(b)
		if !ok {
			break
		}
		p.execute(c)
	}
	b.wg.Wait()
	if err := b.firstErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// forEachInline is the no-pool sequential path, context-checked per
// index like the parallel one.
func forEachInline(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0,n) on p under class and collects the results in
// index order, so the output is identical to a sequential loop for any
// worker count. A nil pool runs inline.
func Map[T any](ctx context.Context, p *Pool, class Class, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, p, class, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
