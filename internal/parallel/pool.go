package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool: its goroutines are spawned once by
// NewPool, park on a task channel while idle, and are joined by Close. It
// carries the same index-addressed fan-out semantics as the package-level
// ForEach/ForEachCtx — dynamic claiming, inline execution when the
// effective width is one, results bit-identical for any worker count — but
// the steady state spawns zero goroutines and allocates nothing: batch
// descriptors come from a free list and idle workers are woken by
// non-blocking sends.
//
// The caller always participates in its own batch, and helpers beyond the
// caller are strictly opportunistic: a batch leaves up to workers-1 wake
// tokens, and however many the pool can consume is how much parallelism the
// batch gets. That is safe under the contract ForEach has always had — fn
// writes only to destinations owned by its index, so which goroutine runs
// an index never changes the result. While joining its helpers, a caller
// doubles as a worker and drains other callers' tokens ("help while
// waiting"), so every queued token is always consumable by some live
// goroutine and nested ForEach calls cannot deadlock the pool no matter how
// many rooms or stages share it.
//
// One process-wide pool (see Default) backs the package-level helpers; the
// daemon in internal/service shares it across every room, which is the
// point: thousands of sessions schedule onto one fixed set of workers
// instead of each spawning its own fan-out goroutines per frame.
type Pool struct {
	workers int
	tasks   chan *batch
	wg      sync.WaitGroup

	mu   sync.Mutex
	free []*batch
}

// batch is one scheduled unit of fan-out: a shared claim counter over
// [0, n) plus join state for however many wake tokens were queued. Batches
// are recycled through the pool's free list, so the steady state of
// Pool.ForEach allocates nothing.
type batch struct {
	n    int
	fn   func(i int)
	ctx  context.Context
	next atomic.Int64

	// pending counts queued wake tokens not yet fully consumed; the
	// consumer that decrements it to zero signals joined (buffered 1, so
	// the signal is never lost; waiters re-check pending, so a stale
	// signal from a recycled batch is a benign spurious wake).
	pending atomic.Int64
	joined  chan struct{}
}

// run claims indices until the batch is exhausted (or its context is done)
// — the same loop the spawning ForEach used, shared by the caller and every
// helper.
func (b *batch) run() {
	for {
		if b.ctx != nil && b.ctx.Err() != nil {
			return
		}
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(i)
	}
}

// NewPool spawns a pool of the given size (<= 0 means Workers(0)) and
// returns it ready for use. The workers live until Close.
//
//rfvet:allow goroleak -- persistent pool workers are the design: spawned once here, parked while idle, joined by Close via p.wg
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{
		workers: w,
		// The buffer lets a batch leave wake tokens even while every worker
		// is mid-task: workers pick queued batches up as they free, or find
		// them already exhausted and move on. Sends stay non-blocking
		// either way.
		tasks: make(chan *batch, w),
	}
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		go p.worker()
	}
	return p
}

// worker is the parked loop every pool goroutine runs: receive a batch,
// help drain it, repeat until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	for b := range p.tasks {
		p.consume(b)
	}
}

// consume processes one received wake token: join the batch's claim loop
// and report the token consumed. It is shared by the pool workers and by
// callers helping while they wait.
func (p *Pool) consume(b *batch) {
	b.run()
	if b.pending.Add(-1) == 0 {
		select {
		case b.joined <- struct{}{}:
		default:
		}
	}
}

// Close shuts the pool down: no further ForEach calls may be made,
// and Close returns once every worker has exited. The process-wide
// defaultPool is never closed.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// getBatch pops a recycled batch descriptor or builds a fresh one; putBatch
// returns one after its join completed.
func (p *Pool) getBatch() *batch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return &batch{joined: make(chan struct{}, 1)}
}

func (p *Pool) putBatch(b *batch) {
	b.n, b.fn, b.ctx = 0, nil, nil
	b.next.Store(0)
	// Drain any stale join signal so a recycled batch starts clean. A
	// signal racing in after this drain only causes a spurious wake on the
	// next use, and waiters re-check pending.
	select {
	case <-b.joined:
	default:
	}
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// ForEach calls fn(i) for every i in [0, n) with up to the given width
// (<= 0 means Workers(0)), capped by the pool size plus the calling
// goroutine. Semantics match the package-level ForEach: dynamic claiming,
// inline when the effective width is one, returns only after every call has
// completed, bit-identical results for any width under the disjoint-write
// contract.
func (p *Pool) ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := p.getBatch()
	b.n, b.fn = n, fn
	p.runBatch(b, w-1)
	p.putBatch(b)
}

// ForEachCtx is ForEach with cooperative cancellation, matching the
// package-level ForEachCtx: participants stop claiming new indices once ctx
// is done, in-flight calls finish, and the call returns ctx.Err(). A nil
// ctx selects the zero-context path, which is exactly ForEach.
func (p *Pool) ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		p.ForEach(n, workers, fn) //rfvet:allow ctxflow -- nil-ctx fast path: there is no context to thread
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	b := p.getBatch()
	b.n, b.fn, b.ctx = n, fn, ctx
	p.runBatch(b, w-1)
	err := ctx.Err()
	p.putBatch(b)
	return err
}

// runBatch executes one batch: leave up to helpers wake tokens for the pool
// (non-blocking — a full queue just means fewer helpers and an immediate
// refund), claim indices on the calling goroutine, then join. The join
// doubles as worker duty: while tokens are outstanding the caller consumes
// whatever the queue holds — its own batch's tokens or other callers' — so
// a token can always be consumed by some live goroutine and nested ForEach
// calls never deadlock, no matter how deep the recursion or how busy the
// pool. runBatch returns only when every index has completed: the caller's
// own claim loop is exhausted and every queued token has been consumed,
// which includes every helper's claim loop having returned.
func (p *Pool) runBatch(b *batch, helpers int) {
	if helpers > p.workers {
		helpers = p.workers
	}
	for i := 0; i < helpers; i++ {
		b.pending.Add(1)
		select {
		case p.tasks <- b:
		default:
			b.pending.Add(-1) // no seat free: the caller covers these indices
		}
	}
	b.run()
	for b.pending.Load() > 0 {
		select {
		case other := <-p.tasks:
			p.consume(other)
		case <-b.joined:
		}
	}
}

// defaultPool is the process-wide pool backing the package-level
// ForEach/ForEachCtx. It is created at package init with Workers(0)
// goroutines — before any test baseline or leak check can observe the
// spawn — and is never closed.
var defaultPool = NewPool(0)
