package placement

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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

// TestPlaceBatchAfterClose: a closed engine refuses sessions with a typed
// error rather than touching freed state.
func TestPlaceBatchAfterClose(t *testing.T) {
	fx := newFixture(t, 25, 16, 80, 4)
	_, eng := placeWith(t, fx, testConfig())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PlaceBatch(context.Background(), fx.queries); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("err = %v, want ErrEngineClosed", err)
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

// TestBatcherSizeTrigger: with the latency window effectively infinite, the
// size threshold alone must flush — and exactly one coalesced batch must
// serve all submitters, each receiving its own slice in submit order.
func TestBatcherSizeTrigger(t *testing.T) {
	fx := newFixture(t, 26, 16, 80, 8)
	b, res, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: len(fx.queries), MaxLatency: time.Hour})

	var wg sync.WaitGroup
	errs := make(chan error, len(fx.queries))
	for i := range fx.queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Submit(context.Background(), fx.queries[i:i+1])
			if err != nil {
				errs <- err
				return
			}
			if len(out) != 1 || out[0].Name != fx.queries[i].Name {
				errs <- errors.New("wrong slice distributed to submitter " + fx.queries[i].Name)
				return
			}
			if out[0].Placements[0].EdgeNum != res.Queries[i].Placements[0].EdgeNum {
				errs <- errors.New("placement differs for " + fx.queries[i].Name)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatcherLatencyTrigger: a lone submitter must be flushed by the timer
// well before MaxBatch fills.
func TestBatcherLatencyTrigger(t *testing.T) {
	fx := newFixture(t, 27, 16, 80, 2)
	b, res, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 1 << 20, MaxLatency: 5 * time.Millisecond})

	out, err := b.Submit(context.Background(), fx.queries[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Name != res.Queries[0].Name {
		t.Fatalf("got %d results", len(out))
	}
}

// TestBatcherSubmitContext: a submitter whose context dies while waiting
// gets the context error promptly, without waiting out the batch.
func TestBatcherSubmitContext(t *testing.T) {
	fx := newFixture(t, 28, 16, 80, 2)
	b, _, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 1 << 20, MaxLatency: time.Hour})

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

// TestBatcherCloseFlushesPending: Close is the drain hook — queries already
// accepted must be placed, not dropped, and later submissions must be
// refused with the typed error.
func TestBatcherCloseFlushesPending(t *testing.T) {
	fx := newFixture(t, 29, 16, 80, 3)
	b, res, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 1 << 20, MaxLatency: time.Hour})

	type outcome struct {
		out []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		out, err := b.Submit(context.Background(), fx.queries)
		done <- outcome{[]Result{{Queries: out}}, err}
	}()

	// Wait for the submission to be pending, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := b.queued
		b.mu.Unlock()
		if n == len(fx.queries) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()

	oc := <-done
	if oc.err != nil {
		t.Fatalf("pending submit failed at Close: %v", oc.err)
	}
	if !sameJplace(t, fx, testConfig(), res.Queries, oc.out[0].Queries) {
		t.Error("drained placements differ from reference")
	}
	if _, err := b.Submit(context.Background(), fx.queries[:1]); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-Close Submit: err = %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherDrainImmediate: after Drain, a Submit must not wait for the
// coalescing window even though MaxLatency is effectively infinite.
func TestBatcherDrainImmediate(t *testing.T) {
	fx := newFixture(t, 30, 16, 80, 2)
	b, _, _ := newTestBatcher(t, fx, BatcherConfig{MaxBatch: 1 << 20, MaxLatency: time.Hour})

	b.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := b.Submit(ctx, fx.queries[:1])
	if err != nil {
		t.Fatalf("post-Drain Submit: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d results, want 1", len(out))
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
