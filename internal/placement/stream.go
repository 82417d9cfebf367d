package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"phylomem/internal/faultinject"
	"phylomem/internal/jplace"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// QuerySource yields successive encoded query chunks. Implementations allow
// the engine to overlap input parsing with placement and to keep only one
// chunk of queries in memory at a time (EPA-NG's rationale for chunked
// processing, Section II).
//
// A source may return a partial chunk together with a *QueryError when it
// hits a malformed query; the engine then applies its skip policy (see
// Config.Strict) and, in lenient mode, calls NextChunk again to continue
// after the bad query. Any other error is fatal to the run.
type QuerySource interface {
	// NextChunk returns up to max queries. An empty result with a nil error
	// signals the end of the input.
	NextChunk(max int) ([]Query, error)
}

// SliceSource adapts an in-memory query slice to QuerySource.
type SliceSource struct {
	queries []Query
	off     int
}

// NewSliceSource wraps qs.
func NewSliceSource(qs []Query) *SliceSource { return &SliceSource{queries: qs} }

// NextChunk implements QuerySource.
func (s *SliceSource) NextChunk(max int) ([]Query, error) {
	n := min(max, len(s.queries)-s.off)
	if n <= 0 {
		return nil, nil
	}
	chunk := s.queries[s.off : s.off+n]
	s.off += n
	return chunk, nil
}

// SequenceSource validates and encodes aligned query sequences one at a
// time, whether they stream from FASTA input or are already in memory: it is
// the one place a seq.Sequence becomes a Query.
type SequenceSource struct {
	next     func() (seq.Sequence, bool, error)
	alphabet *seq.Alphabet
	width    int
	index    int // 0-based ordinal of the next query in the input
}

// NewFastaSource builds a source over a FASTA scanner; width is the
// reference alignment width every query must match.
func NewFastaSource(sc *seq.FastaScanner, alphabet *seq.Alphabet, width int) *SequenceSource {
	return &SequenceSource{next: sc.Next, alphabet: alphabet, width: width}
}

// NewSequenceSource builds a source over sequences already in memory.
func NewSequenceSource(seqs []seq.Sequence, alphabet *seq.Alphabet, width int) *SequenceSource {
	next := func() (seq.Sequence, bool, error) {
		if len(seqs) == 0 {
			return seq.Sequence{}, false, nil
		}
		s := seqs[0]
		seqs = seqs[1:]
		return s, true, nil
	}
	return &SequenceSource{next: next, alphabet: alphabet, width: width}
}

// NextChunk implements QuerySource. A malformed query (wrong width, invalid
// character) returns the queries accumulated so far together with a
// *QueryError carrying the query's name and input ordinal; the read position
// is past the bad query, so a subsequent call continues with the next one.
func (f *SequenceSource) NextChunk(max int) ([]Query, error) {
	var out []Query
	for len(out) < max {
		s, ok, err := f.next()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		idx := f.index
		f.index++
		if len(s.Data) != f.width {
			return out, &QueryError{Name: s.Label, Index: idx,
				Err: fmt.Errorf("has %d sites, reference alignment has %d", len(s.Data), f.width)}
		}
		codes, err := f.alphabet.Encode(s.Data)
		if err != nil {
			return out, &QueryError{Name: s.Label, Index: idx, Err: err}
		}
		out = append(out, Query{Name: s.Label, Codes: codes})
	}
	return out, nil
}

// ReadQueries drains src under the malformed-query skip policy: in lenient
// mode each *QueryError is returned in skipped and reading continues after
// the bad query; in strict mode the first one aborts. Any other error is
// fatal either way.
func ReadQueries(src QuerySource, strict bool) (queries []Query, skipped []*QueryError, err error) {
	return readQueries(src, math.MaxInt, strict)
}

// readQueries is the one skip loop: it reads up to max queries from src,
// skipping malformed ones unless strict, until max are read or the input
// ends. The faultinject source point makes "decode error at chunk K"
// reachable from tests.
func readQueries(src QuerySource, max int, strict bool) ([]Query, []*QueryError, error) {
	var out []Query
	var skipped []*QueryError
	for len(out) < max {
		if err := faultinject.Check(faultinject.PointSourceNext); err != nil {
			return out, skipped, err
		}
		chunk, err := src.NextChunk(max - len(out))
		if out == nil {
			out = chunk[:len(chunk):len(chunk)] // a later append must not write into src's storage
		} else {
			out = append(out, chunk...)
		}
		if err == nil {
			break
		}
		var qe *QueryError
		if strict || !errors.As(err, &qe) {
			return out, skipped, err
		}
		skipped = append(skipped, qe)
	}
	return out, skipped, nil
}

// emit delivers one result to the sink through the faultinject sink point.
func (e *Engine) emit(sink func(jplace.Placements) error, p jplace.Placements) error {
	if err := faultinject.Check(faultinject.PointSinkEmit); err != nil {
		return err
	}
	return sink(p)
}

// prefetched is one decoded chunk in flight between the reader and the
// placer, with its accounted memory footprint and input ordinal.
type prefetched struct {
	seq     int
	queries []Query
	bytes   int64
}

// PlaceStream places queries from a source chunk by chunk, passing each
// query's placements to sink in input order. It returns the number of
// queries placed (queries whose placements were delivered to the sink).
//
// Cancellation contract: when ctx is cancelled, PlaceStream stops between
// chunks (and between parallel blocks inside a chunk), releases all
// transient accounting ("chunk-prefetch" drains to zero), joins its reader
// goroutine, and returns ctx.Err(). Results already delivered
// to the sink remain valid — a cancelled run's partial output is still
// well-formed. Malformed queries are skipped (counted in
// RunStats.QueriesSkipped) unless Config.Strict aborts the run with a
// *QueryError.
//
// Chunk execution is pipelined in two stages: a reader goroutine decodes and
// validates chunk N+1 while the workers place chunk N, and the placer hands
// each placed chunk's results to the sink before it takes the next one, so
// its wall time splits into waiting, placing and emitting. Buffering is
// bounded — at most one decoded chunk is prefetched, accounted under the
// "chunk-prefetch" category so the --maxmem budget still holds (the planner
// reserves two chunks' worth of encoded queries). Chunks flow through a
// single-reader/single-writer FIFO channel and are placed one at a time, so
// results reach the sink in exactly the input order and every floating-point
// operation happens in the same order as in PlaceBatch's synchronous loop:
// pipelining changes wall time, never output.
func (e *Engine) PlaceStream(ctx context.Context, src QuerySource, sink func(jplace.Placements) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.closed {
		return 0, ErrEngineClosed
	}
	start := time.Now()
	busy0 := e.pool.BusyTime()
	defer func() {
		e.stats.PlaceWall += time.Since(start)
		e.stats.PoolBusy += e.pool.BusyTime() - busy0
	}()

	// Reader: decodes the next chunk while the current one is being placed.
	// The channel is unbuffered, so at most one decoded chunk (the one in
	// the reader's hand) exists beyond the chunk being placed — that is the
	// bounded-buffer contract the memory planner's 2× query reservation
	// covers.
	chunks := make(chan prefetched)
	stop := make(chan struct{})
	var readErr error
	var readTime time.Duration
	readSkipped := 0
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(chunks)
		for seq := 0; ; seq++ {
			if ctx.Err() != nil {
				return
			}
			t0 := time.Now()
			chunk, skipped, err := readQueries(src, e.cfg.ChunkSize, e.cfg.Strict)
			readDur := time.Since(t0)
			readSkipped += len(skipped)
			readTime += readDur
			if err != nil {
				readErr = err
				return
			}
			if len(chunk) == 0 {
				return
			}
			e.pipe.ChunkRead(len(chunk), readDur)
			pf := prefetched{seq: seq, queries: chunk, bytes: QueryBytes(chunk)}
			e.trace.Emit(telemetry.Event{Ev: "chunk_read", Chunk: seq, Queries: len(chunk),
				DurNS: int64(readDur), Bytes: pf.bytes})
			e.acct.Alloc("chunk-prefetch", pf.bytes)
			e.pipe.PrefetchInc()
			if err := e.acct.Err(); err != nil {
				e.acct.Free("chunk-prefetch", pf.bytes)
				e.pipe.PrefetchDec()
				readErr = err
				return
			}
			select {
			case chunks <- pf:
			case <-stop:
				e.acct.Free("chunk-prefetch", pf.bytes)
				e.pipe.PrefetchDec()
				return
			case <-ctx.Done():
				e.acct.Free("chunk-prefetch", pf.bytes)
				e.pipe.PrefetchDec()
				return
			}
		}
	}()

	// Placer: the calling goroutine, which also participates in every
	// parallel loop of placeChunk under the pool's helper id, and delivers
	// each placed chunk to the sink itself.
	var placeErr, sinkErr, ctxErr error
	var waitTime time.Duration
	placed := 0
placing:
	for {
		// The explicit poll makes cancellation deterministic at chunk
		// granularity: a select with both channels ready picks at random, so
		// without it a cancelled run could keep draining prefetched chunks.
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break placing
		}
		t0 := time.Now()
		var pf prefetched
		var ok bool
		select {
		case pf, ok = <-chunks:
		case <-ctx.Done():
			waitTime += time.Since(t0)
			ctxErr = ctx.Err()
			break placing
		}
		waitTime += time.Since(t0)
		if !ok {
			break
		}
		e.acct.Free("chunk-prefetch", pf.bytes)
		e.pipe.PrefetchDec()
		t0 = time.Now()
		rs, err := e.placeChunk(ctx, pf.queries)
		placeDur := time.Since(t0)
		if err != nil {
			placeErr = err
			break
		}
		e.stats.ChunksProcessed++
		e.pipe.ChunkPlaced(placeDur)
		e.trace.Emit(telemetry.Event{Ev: "chunk_place", Chunk: pf.seq,
			Queries: len(pf.queries), DurNS: int64(placeDur)})
		t0 = time.Now()
		delivered := 0
		for _, r := range rs {
			if sinkErr = e.emit(sink, r); sinkErr != nil {
				break
			}
			delivered++
		}
		placed += delivered
		emitDur := time.Since(t0)
		e.pipe.ChunkEmitted(emitDur)
		e.trace.Emit(telemetry.Event{Ev: "chunk_emit", Chunk: pf.seq,
			Queries: delivered, DurNS: int64(emitDur)})
		if sinkErr != nil {
			break
		}
	}

	// Shutdown: release the reader and drain any chunk it already accounted.
	// This runs on every exit path — error, cancellation, or clean EOF — so
	// "chunk-prefetch" always returns to zero and no goroutine outlives the
	// call.
	close(stop)
	for pf := range chunks {
		e.acct.Free("chunk-prefetch", pf.bytes)
		e.pipe.PrefetchDec()
	}
	<-readerDone

	e.stats.ChunkRead += readTime
	e.stats.ChunkWait += waitTime
	e.pipe.AddPlaceWait(waitTime)
	e.stats.QueriesPlaced += placed
	e.stats.QueriesSkipped += readSkipped
	switch {
	case placeErr != nil:
		return placed, placeErr
	case sinkErr != nil:
		return placed, sinkErr
	case readErr != nil:
		return placed, readErr
	case ctxErr != nil:
		return placed, ctxErr
	}
	return placed, nil
}
