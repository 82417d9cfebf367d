package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterTimerGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	var g MaxGauge
	for _, v := range []int64{3, 7, 5, 7, 1} {
		g.Observe(v)
	}
	if g.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Load())
	}
	var tm Timer
	tm.Add(time.Millisecond)
	tm.Add(time.Millisecond)
	if tm.Load() != 2*time.Millisecond {
		t.Fatalf("timer = %v", tm.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(time.Microsecond)      // 1µs → bucket 1
	h.Observe(3 * time.Microsecond)  // 3µs → bucket 2
	h.Observe(time.Second)           // 1e6 µs → bucket 20
	h.Observe(-time.Second)          // clamped to 0 → bucket 0
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxNS != int64(time.Second) {
		t.Fatalf("max = %d", s.MaxNS)
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 1, 20: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// The tail bucket absorbs absurd durations instead of panicking.
	h.Observe(100 * time.Hour)
	if got := h.snapshot().Buckets[HistBuckets-1]; got != 1 {
		t.Fatalf("tail bucket = %d", got)
	}
}

// TestNilGroupsAreFreeAndZero is the disabled-telemetry guard: every group
// method on a nil receiver must be a no-op with zero allocations, so hot
// paths can call them unconditionally.
func TestNilGroupsAreFreeAndZero(t *testing.T) {
	var (
		kern *Kernel
		scor *Scoring
		pool *Pool
		pipe *Pipeline
		tr   *Trace
		sink *Sink
	)
	allocs := testing.AllocsPerRun(200, func() {
		kern.TileDone(17, 1<<10)
		scor.CandidateIntegrated(32, time.Millisecond)
		scor.EDPLDone(3, time.Millisecond)
		pool.JobStart()
		pool.Worker(2).Chunk()
		pool.Worker(2).Job()
		pool.Worker(2).AddBusy(time.Millisecond)
		pipe.ChunkRead(10, time.Millisecond)
		pipe.ChunkPlaced(time.Millisecond)
		pipe.ChunkEmitted(time.Millisecond)
		pipe.AddPlaceWait(time.Millisecond)
		pipe.PrefetchInc()
		pipe.PrefetchDec()
		tr.Emit(Event{Ev: "x"})
	})
	if allocs != 0 {
		t.Fatalf("nil-sink telemetry allocated %v per run, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.KernelGroup() != nil || sink.PoolGroup() != nil || sink.PipelineGroup() != nil {
		t.Fatal("nil sink returned non-nil groups")
	}
	snap := sink.Snapshot()
	if snap.Kernel.TilesExecuted != 0 || snap.Pipeline.ChunksPlaced != 0 || len(snap.Pool.Workers) != 0 {
		t.Fatalf("nil sink snapshot not zero: %+v", snap)
	}
}

// TestEnabledGroupsAllocFree checks that recording into a live sink is also
// allocation-free: the counters are plain atomics, so enabling telemetry
// must not put allocations on the hot path either.
func TestEnabledGroupsAllocFree(t *testing.T) {
	sink := NewSink()
	sink.Pool.Init(4)
	kern, pool, pipe := sink.KernelGroup(), sink.PoolGroup(), sink.PipelineGroup()
	allocs := testing.AllocsPerRun(200, func() {
		kern.TileDone(17, 1<<10)
		pool.JobStart()
		pool.Worker(2).Chunk()
		pool.Worker(2).AddBusy(time.Millisecond)
		pipe.ChunkRead(10, time.Millisecond)
		pipe.ChunkPlaced(time.Millisecond)
		pipe.ChunkEmitted(time.Millisecond)
		pipe.PrefetchInc()
		pipe.PrefetchDec()
	})
	if allocs != 0 {
		t.Fatalf("enabled telemetry allocated %v per run, want 0", allocs)
	}
}

// TestConcurrentUpdates hammers one sink from many goroutines; run under
// -race this is the data-race guard, and the totals must be exact.
func TestConcurrentUpdates(t *testing.T) {
	sink := NewSink()
	sink.Pool.Init(8)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sink.PoolGroup().Worker(id)
			for i := 0; i < per; i++ {
				sink.KernelGroup().TileDone(2, int64(id))
				w.Chunk()
				w.AddBusy(time.Nanosecond)
				sink.PipelineGroup().ChunkPlaced(time.Microsecond)
				sink.PipelineGroup().PrefetchInc()
				sink.PipelineGroup().PrefetchDec()
			}
		}(g)
	}
	wg.Wait()
	s := sink.Snapshot()
	if s.Kernel.TilesExecuted != goroutines*per || s.Kernel.BlockKernelCalls != 2*goroutines*per {
		t.Fatalf("tiles=%d calls=%d, want %d and twice that", s.Kernel.TilesExecuted, s.Kernel.BlockKernelCalls, goroutines*per)
	}
	if s.Kernel.BlockResidentBytes != goroutines-1 {
		t.Fatalf("resident high-water = %d, want %d", s.Kernel.BlockResidentBytes, goroutines-1)
	}
	if s.Pipeline.PlaceLatency.Count != goroutines*per {
		t.Fatalf("latency count = %d", s.Pipeline.PlaceLatency.Count)
	}
	for _, w := range s.Pool.Workers {
		if w.Chunks != per {
			t.Fatalf("worker %d chunks = %d, want %d", w.ID, w.Chunks, per)
		}
	}
}

// TestSnapshotSchemaStable marshals snapshots from differently configured
// sinks and checks the key schema is identical — the property the CI
// determinism gate relies on.
func TestSnapshotSchemaStable(t *testing.T) {
	shape := func(s Snapshot) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		var walk func(v any) string
		walk = func(v any) string {
			switch x := v.(type) {
			case map[string]any:
				keys := make([]string, 0, len(x))
				for k := range x {
					keys = append(keys, k+":"+walk(x[k]))
				}
				// Deterministic order.
				for i := range keys {
					for j := i + 1; j < len(keys); j++ {
						if keys[j] < keys[i] {
							keys[i], keys[j] = keys[j], keys[i]
						}
					}
				}
				return "{" + strings.Join(keys, ",") + "}"
			case []any:
				if len(x) == 0 {
					return "[]"
				}
				return "[" + walk(x[0]) + "]"
			default:
				return "v"
			}
		}
		return walk(v)
	}

	// A nil sink's snapshot must at least marshal cleanly (it is never
	// written to a stats file — the CLIs initialize a sink whenever
	// --stats-json is given — but Snapshot() must not panic on it).
	if _, err := json.Marshal((*Sink)(nil).Snapshot()); err != nil {
		t.Fatal(err)
	}

	small := NewSink()
	small.Pool.Init(2) // threads=1: one worker + the submitter's helper id
	small.ScoringGroup().EDPLDone(1, time.Millisecond)
	big := NewSink()
	big.Pool.Init(9) // threads=8
	big.PipelineGroup().ChunkPlaced(time.Millisecond)
	// Kernel activity (tiled engine) versus an untouched kernel group must
	// not change the key set either.
	big.KernelGroup().TileDone(64, 1<<20)

	b, c := shape(small.Snapshot()), shape(big.Snapshot())
	if b != c {
		t.Fatalf("snapshot schema varies across worker counts:\n 2w: %s\n 9w: %s", b, c)
	}

	ks := big.Snapshot().Kernel
	if ks.TilesExecuted != 1 || ks.BlockKernelCalls != 64 || ks.BlockResidentBytes != 1<<20 {
		t.Fatalf("kernel snapshot mismatch: %+v", ks)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.Emit(Event{Ev: "run_start", Detail: "test"})
	tr.Emit(Event{Ev: "chunk_place", Chunk: 1, Queries: 42, DurNS: 1000})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ev != "chunk_place" || ev.Chunk != 1 || ev.Queries != 42 || ev.DurNS != 1000 {
		t.Fatalf("event round-trip mismatch: %+v", ev)
	}
	if ev.TS < 0 {
		t.Fatalf("timestamp %d negative", ev.TS)
	}
	// Emit after Close is dropped, not a crash.
	tr.Emit(Event{Ev: "late"})
}
