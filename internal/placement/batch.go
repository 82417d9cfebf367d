package placement

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// PlaceBatch places one batch of already-encoded queries and returns their
// placements in input order. It is the reusable concurrent session API the
// long-running server is built on: unlike PlaceStream's one-shot streaming
// contract, PlaceBatch may be called repeatedly and from interleaved
// goroutines over one warm engine — calls serialize on the engine's run
// lock, sharing the AMC slot manager, lookup table, and worker pool that
// were built once at construction. Batches larger than Config.ChunkSize are
// processed in chunk-sized pieces, so one oversized batch cannot exceed the
// planned per-chunk memory reservation.
//
// Results are identical to placing the same queries through Place or
// PlaceStream: per-query placement is independent of batch composition (the
// metamorphic suite asserts this), which is what makes request coalescing
// safe. Cancellation stops between chunks with ctx.Err(); queries of the
// cancelled batch are not partially reported.
func (e *Engine) PlaceBatch(ctx context.Context, queries []Query) ([]jplace.Placements, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(queries) == 0 {
		return nil, nil
	}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	start := time.Now()
	busy0 := e.pool.BusyTime()
	defer func() {
		e.stats.PlaceWall += time.Since(start)
		e.stats.PoolBusy += e.pool.BusyTime() - busy0
	}()
	out := make([]jplace.Placements, 0, len(queries))
	for off := 0; off < len(queries); off += e.cfg.ChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := off + e.cfg.ChunkSize
		if end > len(queries) {
			end = len(queries)
		}
		t0 := time.Now()
		rs, err := e.placeChunk(ctx, queries[off:end])
		if err != nil {
			return nil, err
		}
		e.stats.ChunksProcessed++
		e.stats.QueriesPlaced += len(rs)
		e.pipe.ChunkPlaced(time.Since(t0))
		out = append(out, rs...)
	}
	return out, nil
}

// ErrBatcherClosed is returned by Submit after Close: the batcher no longer
// accepts work (the server is draining).
var ErrBatcherClosed = errors.New("placement: batcher closed")

// BatcherConfig parameterizes the micro-batcher.
type BatcherConfig struct {
	// MaxBatch bounds the queries of one engine batch (default 256). A batch
	// takes whole requests, so a single submission larger than MaxBatch still
	// flushes as one batch; PlaceBatch chunks it internally.
	MaxBatch int
	// MaxLatency is not read: a batch closes when the engine goes idle, not
	// on a timer. It stays declared only because the benchmark harness in
	// bench/ still sets it.
	MaxLatency time.Duration
	// Telemetry, when non-nil, receives batch counts, queue waits and flush
	// latencies.
	Telemetry *telemetry.Server
}

// Batcher coalesces queries from concurrent submitters into engine batches,
// closing a batch whenever the engine goes idle. A Submit that finds no
// flush running starts one at once; a running flush, each time its
// PlaceBatch returns, takes what arrived meanwhile — whole requests in
// arrival order, at most MaxBatch queries and at least one request — and
// stops when nothing is pending. So a lone request never waits for company,
// while under load batches grow with the queue: coalescing is what lets a
// resident engine amortize per-chunk overheads (and, under AMC, slot-pool
// locality) across unrelated requests — the serving-time analogue of
// EPA-NG's chunked batch processing.
//
// Submitters whose context expires while waiting get their context error;
// their queries may still be placed with the batch and are then discarded.
type Batcher struct {
	eng *Engine
	cfg BatcherConfig

	mu       sync.Mutex
	pending  []*batchWaiter
	flushing bool           // a flush goroutine is running
	flushes  sync.WaitGroup // that goroutine, for Close to wait out
	closed   bool
}

// batchWaiter is one Submit call's stake in a batch.
type batchWaiter struct {
	queries []Query
	queued  time.Time
	done    chan batchOutcome // buffered; flush never blocks on a waiter
}

type batchOutcome struct {
	placements []jplace.Placements
	err        error
}

// NewBatcher wraps eng. A zero MaxBatch gets the default.
func NewBatcher(eng *Engine, cfg BatcherConfig) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	return &Batcher{eng: eng, cfg: cfg}
}

// Submit enqueues queries and blocks until their batch is placed, returning
// the placements in the order of the submitted queries. Submissions after
// Close fail with ErrBatcherClosed. If ctx expires first, Submit returns
// ctx.Err() without waiting for the batch.
func (b *Batcher) Submit(ctx context.Context, queries []Query) ([]jplace.Placements, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	w := &batchWaiter{queries: queries, queued: time.Now(), done: make(chan batchOutcome, 1)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	b.pending = append(b.pending, w)
	if !b.flushing {
		b.flushing = true
		b.flushes.Add(1)
		go b.flushLoop()
	}
	b.mu.Unlock()

	select {
	case out := <-w.done:
		return out.placements, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushLoop places pending batches back to back until none is pending.
func (b *Batcher) flushLoop() {
	defer b.flushes.Done()
	for {
		b.mu.Lock()
		batch := b.takeLocked()
		if batch == nil {
			b.flushing = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.flush(batch)
	}
}

// takeLocked detaches the next batch: the longest run of pending requests,
// oldest first, within MaxBatch queries, and never less than one request.
// Caller holds b.mu.
func (b *Batcher) takeLocked() []*batchWaiter {
	if len(b.pending) == 0 {
		return nil
	}
	n, queued := 1, len(b.pending[0].queries)
	for n < len(b.pending) && queued+len(b.pending[n].queries) <= b.cfg.MaxBatch {
		queued += len(b.pending[n].queries)
		n++
	}
	batch := b.pending[:n]
	b.pending = append([]*batchWaiter(nil), b.pending[n:]...)
	return batch
}

// flush concatenates the batch's queries, places them in one PlaceBatch
// session, and distributes each waiter's slice of the results. The flush
// runs under the background context, not any single waiter's: one request's
// deadline must not cancel a batch that carries other requests' queries.
// A failed flush fails every waiter in the batch.
func (b *Batcher) flush(batch []*batchWaiter) {
	var all []Query
	for _, w := range batch {
		all = append(all, w.queries...)
	}
	t0 := time.Now()
	for _, w := range batch {
		b.cfg.Telemetry.QueueWaited(t0.Sub(w.queued))
	}
	placements, err := b.eng.PlaceBatch(context.Background(), all)
	b.cfg.Telemetry.BatchFlush(len(all), len(batch), time.Since(t0))
	if err == nil && len(placements) != len(all) {
		err = fmt.Errorf("placement: batch returned %d placements for %d queries", len(placements), len(all))
	}
	off := 0
	for _, w := range batch {
		if err != nil {
			w.done <- batchOutcome{err: err}
			continue
		}
		end := off + len(w.queries)
		w.done <- batchOutcome{placements: placements[off:end:end]}
		off = end
	}
}

// Close rejects all later submissions and returns once every query already
// accepted has been placed: the running flush works through what is pending
// before it exits, and Close waits for it, so no batcher goroutine outlives
// the call. It is the drain hook: after the HTTP server has stopped
// accepting requests, Close guarantees that no accepted query is left to
// race the engine's shutdown.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.flushes.Wait()
}
