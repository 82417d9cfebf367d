package placement

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// TestPlaceBatchMatchesPlace: the session API must return exactly what the
// one-shot API returns, including when the batch spans several chunks.
func TestPlaceBatchMatchesPlace(t *testing.T) {
	fx := newFixture(t, 21, 16, 80, 25)
	for _, chunk := range []int{7, 100} {
		cfg := testConfig()
		cfg.ChunkSize = chunk
		res, eng := placeWith(t, fx, cfg)

		got, err := eng.PlaceBatch(context.Background(), fx.queries)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !sameJplace(t, fx, cfg, res.Queries, got) {
			t.Errorf("chunk=%d: PlaceBatch differs from Place", chunk)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("chunk=%d: close: %v", chunk, err)
		}
	}
}

// TestPlaceBatchRepeatedSessions: one warm engine must serve many batches —
// the serving contract — with each batch independent of the others.
func TestPlaceBatchRepeatedSessions(t *testing.T) {
	fx := newFixture(t, 22, 16, 80, 20)
	res, eng := placeWith(t, fx, testConfig())
	defer eng.Close()

	// Place the same queries in three different groupings; concatenated
	// results must match the reference run each time.
	groupings := [][]int{{20}, {5, 15}, {1, 9, 3, 7}}
	for _, sizes := range groupings {
		var got []Result
		off := 0
		for _, sz := range sizes {
			qs := fx.queries[off : off+sz]
			off += sz
			out, err := eng.PlaceBatch(context.Background(), qs)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, Result{Queries: out})
		}
		var all Result
		for _, g := range got {
			all.Queries = append(all.Queries, g.Queries...)
		}
		if !sameJplace(t, fx, testConfig(), res.Queries, all.Queries) {
			t.Errorf("grouping %v changed placements", sizes)
		}
	}
}

// TestPlaceBatchInterleaved: concurrent PlaceBatch callers over one engine
// serialize safely and each gets its own queries' results.
func TestPlaceBatchInterleaved(t *testing.T) {
	fx := newFixture(t, 23, 16, 80, 24)
	res, eng := placeWith(t, fx, testConfig())
	defer eng.Close()

	const callers = 6
	per := len(fx.queries) / callers
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	results := make([][]int, callers) // placed edge of first placement per query
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := fx.queries[c*per : (c+1)*per]
			for rep := 0; rep < 3; rep++ {
				out, err := eng.PlaceBatch(context.Background(), qs)
				if err != nil {
					errs <- err
					return
				}
				edges := make([]int, len(out))
				for i, p := range out {
					if p.Name != qs[i].Name {
						errs <- errors.New("result order scrambled: " + p.Name + " != " + qs[i].Name)
						return
					}
					edges[i] = p.Placements[0].EdgeNum
				}
				results[c] = edges
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 0; c < callers; c++ {
		for i, edge := range results[c] {
			want := res.Queries[c*per+i].Placements[0].EdgeNum
			if edge != want {
				t.Errorf("caller %d query %d: edge %d, want %d", c, i, edge, want)
			}
		}
	}
}

// TestPlaceBatchCancellation: an expired context stops the batch between
// chunks with the context's error and no partial results.
func TestPlaceBatchCancellation(t *testing.T) {
	fx := newFixture(t, 24, 16, 80, 10)
	_, eng := placeWith(t, fx, testConfig())
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := eng.PlaceBatch(ctx, fx.queries)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled batch returned partial results")
	}
}

// TestPlaceBatchAfterClose: a closed engine refuses every session, an empty
// one included, with a typed error rather than touching freed state.
func TestPlaceBatchAfterClose(t *testing.T) {
	fx := newFixture(t, 25, 16, 80, 4)
	_, eng := placeWith(t, fx, testConfig())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, qs := range [][]Query{fx.queries, nil} {
		if out, err := eng.PlaceBatch(context.Background(), qs); !errors.Is(err, ErrEngineClosed) || out != nil {
			t.Fatalf("%d queries: (%v, %v), want (nil, ErrEngineClosed)", len(qs), out, err)
		}
	}
}

// newTestBatcher builds a warm engine and batcher over a shared fixture.
func newTestBatcher(t *testing.T, fx *fixture, cfg BatcherConfig) (*Batcher, *Result, *Engine) {
	t.Helper()
	res, eng := placeWith(t, fx, testConfig())
	t.Cleanup(func() { eng.Close() })
	b := NewBatcher(eng, cfg)
	t.Cleanup(b.Close)
	return b, res, eng
}

// holdEngine keeps eng busy — its run lock held by a PlaceStream whose
// source blocks — until the returned release is called, so batches reaching
// the engine meanwhile wait behind it. release waits for the stream to
// finish; the test's cleanup calls it too.
func holdEngine(t *testing.T, eng *Engine) (release func()) {
	t.Helper()
	src := &blockingSource{started: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := eng.PlaceStream(context.Background(), src, func(jplace.Placements) error { return nil })
		done <- err
	}()
	<-src.started
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(src.gate)
			if err := <-done; err != nil {
				t.Errorf("engine hold: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// blockingSource is an empty query source whose one read blocks until gate
// closes; started closes once the read (and so the engine's run lock) is
// under way.
type blockingSource struct{ started, gate chan struct{} }

func (s *blockingSource) NextChunk(int) ([]Query, error) {
	close(s.started)
	<-s.gate
	return nil, nil
}

// awaitQueued polls until b's flush is running with n submissions queued
// behind the batch it holds.
func awaitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		ok := b.flushing && len(b.pending) == n
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d submissions queued behind a running flush", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitOutcome is one submitQueued group's result.
type submitOutcome struct {
	group int
	out   []jplace.Placements
	err   error
}

// submitQueued submits each group from its own goroutine, in order, while
// b's engine is held: the first group is taken alone by a flush that then
// waits for the engine, and each later group queues behind it. The channel
// yields one outcome per group once the engine is released.
func submitQueued(t *testing.T, b *Batcher, groups [][]Query) <-chan submitOutcome {
	t.Helper()
	outs := make(chan submitOutcome, len(groups))
	for i, g := range groups {
		go func(i int, g []Query) {
			out, err := b.Submit(context.Background(), g)
			outs <- submitOutcome{i, out, err}
		}(i, g)
		awaitQueued(t, b, i)
	}
	return outs
}

// fifoBatches is the number of batches the batcher's rule gives groups
// queued in order behind a flush that took the first alone: runs of whole
// groups, oldest first, within maxBatch queries and at least one group each.
func fifoBatches(groups [][]Query, maxBatch int) int {
	n := 1
	for i := 1; i < len(groups); n++ {
		q := len(groups[i])
		for i++; i < len(groups) && q+len(groups[i]) <= maxBatch; i++ {
			q += len(groups[i])
		}
	}
	return n
}

// TestBatcherSizeTrigger: requests queued behind a busy engine form exactly
// the FIFO batches MaxBatch implies — whole requests, at most MaxBatch
// queries, an oversized request alone — and each submitter receives its own
// slice of the results.
func TestBatcherSizeTrigger(t *testing.T) {
	fx := newFixture(t, 26, 16, 80, 15)
	tel := &telemetry.Server{}
	b, res, eng := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 4, Telemetry: tel})

	// Batches: [1] while the engine is held, then [2 2] [1 3] [5] [1].
	var groups [][]Query
	off := 0
	for _, sz := range []int{1, 2, 2, 1, 3, 5, 1} {
		groups = append(groups, fx.queries[off:off+sz])
		off += sz
	}
	release := holdEngine(t, eng)
	outs := submitQueued(t, b, groups)
	release()
	for range groups {
		oc := <-outs
		if oc.err != nil {
			t.Fatalf("group %d: %v", oc.group, oc.err)
		}
		start := 0
		for _, g := range groups[:oc.group] {
			start += len(g)
		}
		if !sameJplace(t, fx, testConfig(), res.Queries[start:start+len(groups[oc.group])], oc.out) {
			t.Errorf("group %d received placements other than its own", oc.group)
		}
	}
	if got, want := tel.Batches.Load(), uint64(fifoBatches(groups, 4)); got != want || want != 5 {
		t.Errorf("batches = %d, want %d (5)", got, want)
	}
	if got := tel.BatchedRequests.Load(); got != uint64(len(groups)) {
		t.Errorf("batched requests = %d, want %d", got, len(groups))
	}
	if got := tel.BatchedQueries.Load(); got != uint64(off) {
		t.Errorf("batched queries = %d, want %d", got, off)
	}
}

// TestBatcherLatencyTrigger: a lone request on an idle engine is dispatched
// at once — one batch, one queue-wait sample — rather than waiting for
// company that never comes.
func TestBatcherLatencyTrigger(t *testing.T) {
	fx := newFixture(t, 27, 16, 80, 2)
	tel := &telemetry.Server{}
	b, res, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 1 << 20, Telemetry: tel})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := b.Submit(ctx, fx.queries[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Name != res.Queries[0].Name {
		t.Fatalf("got %d results", len(out))
	}
	if n, w := tel.Batches.Load(), tel.QueueWait.Count.Load(); n != 1 || w != 1 {
		t.Errorf("batches = %d, queue-wait samples = %d, want 1 and 1", n, w)
	}
}

// TestBatcherSubmitContext: a submitter whose context dies while waiting
// gets the context error promptly, without waiting out the batch.
func TestBatcherSubmitContext(t *testing.T) {
	fx := newFixture(t, 28, 16, 80, 2)
	b, _, eng := newTestBatcher(t, fx, BatcherConfig{})
	holdEngine(t, eng)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.Submit(ctx, fx.queries[:1])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Submit did not honor the context deadline")
	}
}

// TestBatcherCloseFlushesPending: Close is the drain hook — a request taken
// by the running flush and one still queued behind it must both be placed,
// not dropped, and later submissions must be refused with the typed error.
func TestBatcherCloseFlushesPending(t *testing.T) {
	fx := newFixture(t, 29, 16, 80, 3)
	b, res, eng := newTestBatcher(t, fx, BatcherConfig{})

	release := holdEngine(t, eng)
	outs := submitQueued(t, b, [][]Query{fx.queries[:1], fx.queries[1:]})
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	for {
		b.mu.Lock()
		c := b.closed
		b.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	release()
	<-closed

	got := make([][]jplace.Placements, 2)
	for range got {
		oc := <-outs
		if oc.err != nil {
			t.Fatalf("group %d failed at Close: %v", oc.group, oc.err)
		}
		got[oc.group] = oc.out
	}
	if !sameJplace(t, fx, testConfig(), res.Queries, append(got[0], got[1]...)) {
		t.Error("drained placements differ from reference")
	}
	if _, err := b.Submit(context.Background(), fx.queries[:1]); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-Close Submit: err = %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherCloseWaitsForInflightBatch: a batch already detached from the
// queue and waiting for the engine is still the batcher's to finish. Its
// submitter has given up, but Close must not return — letting the engine
// close underneath it — until the batch is placed.
func TestBatcherCloseWaitsForInflightBatch(t *testing.T) {
	fx := newFixture(t, 32, 16, 80, 3)
	b, _, eng := newTestBatcher(t, fx, BatcherConfig{})
	placed0 := eng.Stats().QueriesPlaced

	release := holdEngine(t, eng)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, fx.queries); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held Submit: err = %v, want DeadlineExceeded", err)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an accepted batch was still waiting for the engine")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-closed
	if got := eng.Stats().QueriesPlaced - placed0; got != len(fx.queries) {
		t.Fatalf("queries placed by the time Close returned = %d, want %d", got, len(fx.queries))
	}
}

// TestBatcherEmptySubmit: zero queries complete immediately with no work.
func TestBatcherEmptySubmit(t *testing.T) {
	fx := newFixture(t, 31, 16, 80, 2)
	b, _, _ := newTestBatcher(t, fx, BatcherConfig{})
	out, err := b.Submit(context.Background(), nil)
	if err != nil || out != nil {
		t.Fatalf("empty submit: %v, %v", out, err)
	}
}
