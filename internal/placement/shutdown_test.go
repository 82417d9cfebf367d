package placement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/faultinject"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
)

// The tests in this file exercise the failure semantics of PlaceStream: for
// every failure point (source decode error, sink error, slot exhaustion,
// accountant overcommit) and for cancellation, a partial run must leave the
// transient accounting drained, leak no goroutines, keep the slot-map
// invariants intact, and hand the sink a prefix of the input that still
// serializes to well-formed jplace.

// goroutineBaseline samples the goroutine count after giving stragglers from
// earlier tests a moment to exit.
func goroutineBaseline() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// baseline; pool workers and the precompute goroutine exit asynchronously
// after Close, so this polls briefly before declaring a leak.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}

// assertTransientsDrained checks that every per-run accounting category is
// back to zero and the accountant as a whole is at its pre-stream level.
func assertTransientsDrained(t *testing.T, eng *Engine, base int64) {
	t.Helper()
	if err := eng.Accountant().AssertDrained("chunk-queries", "chunk-scores"); err != nil {
		t.Fatalf("transient accounting not drained: %v", err)
	}
	if cur := eng.Accountant().Current(); cur != base {
		t.Fatalf("accountant at %d bytes, pre-stream baseline %d", cur, base)
	}
}

// assertWellFormedJplace serializes the partial results and re-parses them.
func assertWellFormedJplace(t *testing.T, fx *fixture, placed []jplace.Placements) {
	t.Helper()
	var buf bytes.Buffer
	doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: placed, Invocation: "test"}
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatalf("partial results do not serialize: %v", err)
	}
	got, err := jplace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("partial jplace does not re-parse: %v", err)
	}
	if len(got.Queries) != len(placed) {
		t.Fatalf("round-trip lost queries: %d != %d", len(got.Queries), len(placed))
	}
}

// streamWithFault runs PlaceStream over the fixture's queries collecting
// results, then runs the common post-mortem assertions shared by all fault
// tests. It returns the results delivered to the sink and the stream error.
func streamWithFault(t *testing.T, fx *fixture, cfg Config) ([]jplace.Placements, error) {
	t.Helper()
	baseline := goroutineBaseline()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Accountant().Current()
	var placed []jplace.Placements
	n, streamErr := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})
	if n != len(placed) {
		t.Fatalf("PlaceStream reported %d placed, sink saw %d", n, len(placed))
	}
	if st := eng.Stats(); st.QueriesPlaced != len(placed) {
		t.Fatalf("stats QueriesPlaced = %d, sink saw %d", st.QueriesPlaced, len(placed))
	}
	assertTransientsDrained(t, eng, base)
	// The delivered prefix must be in input order.
	for i, p := range placed {
		if p.Name != fx.queries[i].Name {
			t.Fatalf("result %d is %q, want %q", i, p.Name, fx.queries[i].Name)
		}
	}
	assertWellFormedJplace(t, fx, placed)
	closeErr := eng.Close()
	if closeErr != nil && !errors.Is(closeErr, memacct.ErrOvercommit) {
		// A sticky overcommit is re-surfaced by Close by design; anything
		// else (invariant violation, leak) is a genuine failure.
		t.Fatalf("Close audit failed: %v", closeErr)
	}
	assertNoGoroutineLeak(t, baseline)
	return placed, streamErr
}

// TestFaultSourceErrorMidStream injects a decode failure at the third chunk
// read: the run must abort with the injected error after delivering the
// chunks read before it.
func TestFaultSourceErrorMidStream(t *testing.T) {
	fx := newFixture(t, 40, 16, 100, 12)
	injected := fmt.Errorf("injected decode failure")
	cfg := testConfig()
	cfg.ChunkSize = 3
	cfg.Threads = 4
	faultinject.Arm(faultinject.PointSourceNext, 2, injected)
	placed, err := streamWithFault(t, fx, cfg)
	faultinject.Reset()
	if !errors.Is(err, injected) {
		t.Fatalf("stream error = %v, want injected decode failure", err)
	}
	// Two chunks were read cleanly before the fault; the second may still be
	// in flight when the error lands, so at least the first chunk must have
	// been delivered.
	if len(placed) == 0 || len(placed) > 6 {
		t.Fatalf("%d results delivered, want 1..6", len(placed))
	}
}

// TestFaultSinkErrorMidStream injects a sink failure at the fifth emitted
// result, inside the second of four chunks: the placer must stop emitting
// and release the reader, which may hold the next chunk, without
// deadlocking, and exactly the results emitted before the failure count as
// placed.
func TestFaultSinkErrorMidStream(t *testing.T) {
	fx := newFixture(t, 41, 16, 100, 12)
	injected := fmt.Errorf("injected sink failure")
	cfg := testConfig()
	cfg.ChunkSize = 3
	cfg.Threads = 4
	faultinject.Arm(faultinject.PointSinkEmit, 4, injected)
	placed, err := streamWithFault(t, fx, cfg)
	faultinject.Reset()
	if !errors.Is(err, injected) {
		t.Fatalf("stream error = %v, want injected sink failure", err)
	}
	if len(placed) != 4 {
		t.Fatalf("%d results delivered before sink failure, want 4", len(placed))
	}
}

// TestFaultSlotExhaustion injects slot exhaustion inside the AMC slot
// manager mid-placement: the run aborts with core.ErrNoSlots, no slot stays
// pinned, and the invariant audit in Close passes.
func TestFaultSlotExhaustion(t *testing.T) {
	fx := newFixture(t, 42, 16, 120, 8)
	cfg := testConfig()
	cfg.ChunkSize = 4
	cfg.MaxMem = tightMaxMem(t, fx, cfg, false) // AMC, no lookup: phase 1 hits the manager
	// Arm only after construction so the fault is guaranteed to land inside
	// placeChunk's block precompute, not in engine setup.
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Plan().AMC {
		t.Fatal("fixture budget did not force AMC")
	}
	baseline := goroutineBaseline()
	base := eng.Accountant().Current()
	injected := fmt.Errorf("injected slot exhaustion")
	faultinject.Arm(faultinject.PointAllocSlot, 0, injected)
	defer faultinject.Reset()
	var placed []jplace.Placements
	_, streamErr := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})
	if !errors.Is(streamErr, core.ErrNoSlots) || !errors.Is(streamErr, injected) {
		t.Fatalf("stream error = %v, want injected ErrNoSlots", streamErr)
	}
	assertTransientsDrained(t, eng, base)
	assertWellFormedJplace(t, fx, placed)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close audit failed after slot exhaustion: %v", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestFaultAccountantOvercommit injects an overcommit detection into the
// accountant: the engine aborts the run at the next chunk boundary and Close
// re-surfaces the sticky error.
func TestFaultAccountantOvercommit(t *testing.T) {
	fx := newFixture(t, 43, 16, 100, 10)
	baseline := goroutineBaseline()
	cfg := testConfig()
	cfg.ChunkSize = 3
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Accountant().Current()
	injected := fmt.Errorf("injected overcommit")
	faultinject.Arm(faultinject.PointAcctAlloc, 0, injected)
	defer faultinject.Reset()
	var placed []jplace.Placements
	_, streamErr := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})
	if !errors.Is(streamErr, memacct.ErrOvercommit) {
		t.Fatalf("stream error = %v, want ErrOvercommit", streamErr)
	}
	assertTransientsDrained(t, eng, base)
	assertWellFormedJplace(t, fx, placed)
	closeErr := eng.Close()
	if !errors.Is(closeErr, memacct.ErrOvercommit) {
		t.Fatalf("Close did not surface the sticky overcommit: %v", closeErr)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestCancelBetweenChunks cancels the context from the sink after the first
// chunk's results: the stream returns ctx.Err(), the already-delivered
// results stay valid, and the pipeline winds down cleanly.
func TestCancelBetweenChunks(t *testing.T) {
	fx := newFixture(t, 44, 16, 100, 12)
	baseline := goroutineBaseline()
	cfg := testConfig()
	cfg.ChunkSize = 3
	cfg.Threads = 4
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Accountant().Current()
	ctx, cancel := context.WithCancel(context.Background())
	var placed []jplace.Placements
	n, streamErr := eng.PlaceStream(ctx, NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		if len(placed) == cfg.ChunkSize {
			cancel()
		}
		return nil
	})
	cancel()
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", streamErr)
	}
	if n != len(placed) || n < cfg.ChunkSize || n >= len(fx.queries) {
		t.Fatalf("placed %d (sink saw %d), want a strict prefix of %d", n, len(placed), len(fx.queries))
	}
	for i, p := range placed {
		if p.Name != fx.queries[i].Name {
			t.Fatalf("result %d is %q, want %q", i, p.Name, fx.queries[i].Name)
		}
	}
	assertTransientsDrained(t, eng, base)
	assertWellFormedJplace(t, fx, placed)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close audit failed after cancellation: %v", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestNewContextCancelled verifies that constructing an engine with an
// already-cancelled context fails fast without leaking the worker pool.
func TestNewContextCancelled(t *testing.T) {
	fx := newFixture(t, 45, 12, 80, 0)
	baseline := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewContext(ctx, fx.part, fx.tr, testConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewContext error = %v, want context.Canceled", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestCloseIdempotent double-closes a clean engine: the audit runs once and
// both calls succeed.
func TestCloseIdempotent(t *testing.T) {
	fx := newFixture(t, 46, 12, 80, 4)
	eng, err := New(fx.part, fx.tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place(fx.queries); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
