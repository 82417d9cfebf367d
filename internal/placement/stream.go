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

// QuerySource yields successive encoded query chunks. Implementations let
// the engine keep only one chunk of queries in memory at a time (EPA-NG's
// rationale for chunked processing, Section II).
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

// PlaceStream places queries from a source chunk by chunk, passing each
// query's placements to sink in input order. It returns the number of
// queries placed (queries whose placements were delivered to the sink).
//
// It is the engine's one chunk loop; Place and PlaceBatch run it over a
// SliceSource. Each pass reads up to Config.ChunkSize queries, places them
// and hands the results to the sink before the next read, all on the
// calling goroutine (which also takes part in every parallel loop of the
// chunk), so the wall time is read + place + emit and only one chunk of
// queries is resident at a time. Malformed queries are skipped (counted in
// RunStats.QueriesSkipped) unless Config.Strict aborts the run with a
// *QueryError.
//
// Cancellation contract: when ctx is cancelled, PlaceStream stops before
// the next chunk (or between parallel blocks inside a chunk), with all
// transient accounting released, and returns ctx.Err(). Results already
// delivered to the sink remain valid — a cancelled run's partial output is
// still well-formed.
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
	placed := 0
	defer func() {
		e.stats.PlaceWall += time.Since(start)
		e.stats.PoolBusy += e.pool.BusyTime() - busy0
		e.stats.QueriesPlaced += placed
	}()

	for seq := 0; ; seq++ {
		if err := ctx.Err(); err != nil {
			return placed, err
		}
		t0 := time.Now()
		chunk, skipped, err := readQueries(src, e.cfg.ChunkSize, e.cfg.Strict)
		readDur := time.Since(t0)
		e.stats.QueriesSkipped += len(skipped)
		e.stats.ChunkRead += readDur
		e.stats.ChunkWait += readDur
		if err != nil {
			return placed, err
		}
		if len(chunk) == 0 {
			return placed, nil
		}
		e.pipe.ChunkRead(len(chunk))
		e.trace.Emit(telemetry.Event{Ev: "chunk_read", Chunk: seq, Queries: len(chunk),
			DurNS: int64(readDur), Bytes: QueryBytes(chunk)})

		t0 = time.Now()
		runs0, pats0, terms0 := e.stats.Phase2Runs, e.stats.Phase2PatternsUpdated, e.stats.LookupTerms
		rs, err := e.placeChunk(ctx, chunk)
		placeDur := time.Since(t0)
		if err != nil {
			return placed, err
		}
		e.stats.ChunksProcessed++
		e.pipe.ChunkPlaced(placeDur)
		if e.trace != nil {
			e.trace.Emit(telemetry.Event{Ev: "chunk_place", Chunk: seq,
				Queries: len(chunk), DurNS: int64(placeDur),
				Detail: fmt.Sprintf("phase2_runs=%d phase2_patterns_updated=%d lookup_terms=%d",
					e.stats.Phase2Runs-runs0, e.stats.Phase2PatternsUpdated-pats0, e.stats.LookupTerms-terms0)})
		}

		t0 = time.Now()
		delivered := 0
		for _, r := range rs {
			if err = e.emit(sink, r); err != nil {
				break
			}
			delivered++
		}
		placed += delivered
		emitDur := time.Since(t0)
		e.pipe.ChunkEmitted(emitDur)
		e.trace.Emit(telemetry.Event{Ev: "chunk_emit", Chunk: seq,
			Queries: delivered, DurNS: int64(emitDur)})
		if err != nil {
			return placed, err
		}
	}
}
