// Package parallel is the shared execution layer: a persistent,
// engine-lifetime worker pool that replaces the per-call goroutine spawning
// the placement and baseline engines used to do.
//
// Design notes:
//
//   - Work is distributed by an atomic chunk counter over contiguous index
//     ranges. Chunked ranges amortize the dispatch cost over many items and
//     keep adjacent items on one worker (no false sharing on dense outputs).
//   - The submitting goroutine always participates in its own job under the
//     dedicated helper id Workers(), so a job finishes even if every pool
//     worker is busy elsewhere and nested submission cannot deadlock.
//   - Worker ids are stable and dense in [0, Size()), which is what makes
//     per-worker scratch affinity possible: callers keep a slice of Size()
//     scratch states and index it with the id they are handed, eliminating
//     sync.Pool churn from hot loops.
//   - A panic in the task function aborts the job's remaining chunks and is
//     re-raised on the submitting goroutine; the pool itself survives.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phylomem/internal/telemetry"
)

// Pool is a fixed-size set of persistent worker goroutines. The zero value
// is not usable; construct with New. A Pool is safe for concurrent use by
// multiple submitters, but Close must not race with Run.
type Pool struct {
	workers int
	jobs    chan *job
	busy    *atomic.Int64
	closed  atomic.Bool
	once    sync.Once

	// tel, when set, receives per-participant chunk counts and busy time.
	// It travels with each job (never read through p by the workers), so
	// the finalizer-based reaping of unreachable pools keeps working.
	tel atomic.Pointer[telemetry.Pool]
}

// SetTelemetry attaches a telemetry group sized to at least Size()
// participant slots (see telemetry.Pool.Init). Jobs submitted after the
// call record per-worker chunk and busy-time counts; nil detaches. Safe to
// call concurrently with Run — a job in flight keeps the group it started
// with.
func (p *Pool) SetTelemetry(t *telemetry.Pool) { p.tel.Store(t) }

// New starts a pool with the given number of workers (minimum 1). With one
// worker no goroutines are started and Run executes inline. Pools hold OS
// resources (goroutines); call Close when done — as a safety net a finalizer
// reaps pools that become unreachable without being closed.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, busy: new(atomic.Int64)}
	if workers > 1 {
		// Invites are dropped (not queued) when the channel is full, so a
		// small buffer per worker is plenty even with concurrent jobs.
		p.jobs = make(chan *job, 4*workers)
		for i := 0; i < workers; i++ {
			// The goroutine captures the channel, its id, and the shared busy
			// counter — never p itself — so an unreachable Pool can be
			// finalized while its workers are still parked on the channel.
			go workerLoop(p.jobs, i, p.busy)
		}
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

// Workers returns the number of pool worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// Size returns the number of distinct worker ids Run can hand to fn:
// Workers() pool goroutines plus the submitting goroutine's helper id.
// Callers keeping per-worker state should size it to Size().
func (p *Pool) Size() int { return p.workers + 1 }

// Participants returns the number of goroutines that can be inside job
// chunks at once for a single submitter: the submitter alone on a one-worker
// pool (Run executes inline), otherwise the workers plus the submitter. It
// is the denominator of a utilization computed from BusyTime.
func (p *Pool) Participants() int {
	if p.workers == 1 {
		return 1
	}
	return p.workers + 1
}

// Close shuts the worker goroutines down. Idempotent; a closed pool remains
// usable, with Run degrading to inline execution on the caller.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.closed.Store(true)
		if p.jobs != nil {
			close(p.jobs)
		}
	})
}

// BusyTime returns the cumulative wall time participants (workers and
// submitters) have spent executing job chunks. Utilization over an interval
// is the BusyTime delta divided by (wall time × Participants()).
func (p *Pool) BusyTime() time.Duration { return time.Duration(p.busy.Load()) }

// Run executes fn over the index range [0, n) split into chunks of grain
// indices (grain <= 0 picks a default that yields several chunks per
// worker). fn is called as fn(lo, hi, worker) with 0 <= lo < hi <= n and a
// worker id in [0, Size()); the ranges partition [0, n) exactly. Run returns
// when every index has been processed. If fn panics, the job's remaining
// chunks are abandoned and the first panic value is re-raised here.
func (p *Pool) Run(n, grain int, fn func(lo, hi, worker int)) {
	p.RunContext(context.Background(), n, grain, fn)
}

// RunContext is Run with cancellation: when ctx is cancelled, no further
// chunks are claimed and RunContext returns ctx.Err() once every chunk
// already in flight has finished. The ranges actually executed before a
// cancellation are always a prefix-closed subset of the full partition —
// indices are never half-processed, so callers can safely discard or retry
// the whole job. A nil error means every index was processed.
func (p *Pool) RunContext(ctx context.Context, n, grain int, fn func(lo, hi, worker int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if grain <= 0 {
		grain = n / (8 * p.workers)
		if grain < 1 {
			grain = 1
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tel := p.tel.Load()
	tel.JobStart()
	if p.workers == 1 || n <= grain || p.closed.Load() {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			p.busy.Add(int64(d))
			if w := tel.Worker(p.workers); w != nil {
				w.Job()
				w.Chunk()
				w.AddBusy(d)
			}
		}()
		fn(0, n, p.workers)
		return nil
	}
	j := &job{n: n, grain: grain, fn: fn, finished: make(chan struct{}), tel: tel}
	chunks := (n + grain - 1) / grain
	j.chunks = int64(chunks)
	if ctx.Done() != nil {
		j.ctx = ctx
	}
	invites := p.workers
	if invites > chunks-1 {
		invites = chunks - 1 // the submitter takes at least one chunk
	}
	for i := 0; i < invites; i++ {
		select {
		case p.jobs <- j:
		default: // every worker already has an invite queued
		}
	}
	j.work(p.workers, p.busy)
	<-j.finished
	if pv := j.panicVal.Load(); pv != nil {
		panic(*pv)
	}
	if j.cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// ForEach runs fn(i, worker) for every i in [0, n) through Run with the
// default grain.
func (p *Pool) ForEach(n int, fn func(i, worker int)) {
	p.Run(n, 0, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			fn(i, worker)
		}
	})
}

// ForEachContext is ForEach through RunContext: it stops claiming chunks on
// cancellation and returns ctx.Err().
func (p *Pool) ForEachContext(ctx context.Context, n int, fn func(i, worker int)) error {
	return p.RunContext(ctx, n, 0, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			fn(i, worker)
		}
	})
}

// job is one Run invocation's shared state. Chunks are claimed through the
// atomic next counter; the job is finished when the done counter has
// accounted for every chunk, at which point the claimer of the last chunk
// closes finished.
type job struct {
	n, grain  int
	chunks    int64
	next      atomic.Int64
	done      atomic.Int64
	aborted   atomic.Bool
	cancelled atomic.Bool
	panicVal  atomic.Pointer[any]
	fn        func(lo, hi, worker int)
	finished  chan struct{}
	ctx       context.Context // nil when the job is not cancellable
	tel       *telemetry.Pool // nil when telemetry is disabled
}

func workerLoop(jobs <-chan *job, id int, busy *atomic.Int64) {
	for j := range jobs {
		j.work(id, busy)
	}
}

// work claims and executes chunks until the job runs dry. Both pool workers
// and the submitting goroutine drive jobs through it. After a panic the
// remaining chunks are still claimed (so done reaches chunks and the
// submitter is released) but fn is no longer called. A chunk's time and count
// are recorded before the chunk is counted done: once the last one is, the
// submitter may return and read BusyTime and the telemetry group.
func (j *job) work(worker int, busy *atomic.Int64) {
	w := j.tel.Worker(worker)
	joined := false
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		if j.ctx != nil && !j.aborted.Load() && j.ctx.Err() != nil {
			// Cancellation aborts like a panic — remaining chunks are
			// claimed but not run — except the submitter gets ctx.Err()
			// instead of a re-raised panic.
			j.cancelled.Store(true)
			j.aborted.Store(true)
		}
		if !j.aborted.Load() {
			start := time.Now()
			j.runChunk(c, worker)
			d := time.Since(start)
			busy.Add(int64(d))
			if !joined {
				joined = true
				w.Job()
			}
			w.Chunk()
			w.AddBusy(d)
		}
		if j.done.Add(1) == j.chunks {
			close(j.finished)
		}
	}
}

// runChunk executes one chunk, converting a panic into job abortion: the
// first panic value is recorded for the submitter to re-raise.
func (j *job) runChunk(c int64, worker int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicVal.CompareAndSwap(nil, &r)
			j.aborted.Store(true)
		}
	}()
	lo := int(c) * j.grain
	hi := lo + j.grain
	if hi > j.n {
		hi = j.n
	}
	j.fn(lo, hi, worker)
}
