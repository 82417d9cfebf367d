package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"phylomem/internal/memacct"
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
	if h.Count.Load() != 5 {
		t.Fatalf("count = %d", h.Count.Load())
	}
	if h.Max.Load() != int64(time.Second) {
		t.Fatalf("max = %d", h.Max.Load())
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 1, 20: 1}
	for i := range h.Buckets {
		if n := h.Buckets[i].Load(); n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// The tail bucket absorbs absurd durations instead of panicking.
	h.Observe(100 * time.Hour)
	if got := h.Buckets[HistBuckets-1].Load(); got != 1 {
		t.Fatalf("tail bucket = %d", got)
	}
	// Rendered form: the four keys, durations in nanoseconds, every bucket.
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Count   uint64   `json:"count"`
		SumNS   int64    `json:"sum_ns"`
		MaxNS   int64    `json:"max_ns"`
		Buckets []uint64 `json:"buckets"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Count != 6 || got.MaxNS != int64(100*time.Hour) || got.SumNS != int64(h.Sum.Load()) ||
		len(got.Buckets) != HistBuckets || got.Buckets[0] != 2 {
		t.Fatalf("rendered histogram %s", data)
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
		srv  *Server
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
		srv.Admit(8)
		srv.Reject()
		srv.QueueWaited(time.Millisecond)
		srv.BatchFlush(8, 1, time.Millisecond)
		srv.RequestDone(time.Millisecond)
		tr.Emit(Event{Ev: "x"})
	})
	if allocs != 0 {
		t.Fatalf("nil-sink telemetry allocated %v per run, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.KernelGroup() != nil || sink.PoolGroup() != nil || sink.PipelineGroup() != nil || sink.ServerGroup() != nil {
		t.Fatal("nil sink returned non-nil groups")
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
	k := &sink.Kernel
	if k.TilesExecuted.Load() != goroutines*per || k.BlockKernelCalls.Load() != 2*goroutines*per {
		t.Fatalf("tiles=%d calls=%d, want %d and twice that", k.TilesExecuted.Load(), k.BlockKernelCalls.Load(), goroutines*per)
	}
	if k.BlockResidentBytes.Load() != goroutines-1 {
		t.Fatalf("resident high-water = %d, want %d", k.BlockResidentBytes.Load(), goroutines-1)
	}
	if n := sink.Pipeline.PlaceLatency.Count.Load(); n != goroutines*per {
		t.Fatalf("latency count = %d", n)
	}
	for i := range sink.Pool.Workers {
		if w := &sink.Pool.Workers[i]; w.ID != i || w.Chunks.Load() != per {
			t.Fatalf("worker %d: id %d chunks %d, want %d", i, w.ID, w.Chunks.Load(), per)
		}
	}
}

// TestGroupsDeclareEveryKey walks every live group, and memacct.Plan, which
// renders itself the same way: each exported field must carry a json tag
// without omitempty. The struct that holds the atomics is the one declaration
// of its --stats-json keys, and the CI determinism gate needs a key never to
// depend on its value.
func TestGroupsDeclareEveryKey(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	leaves := 0
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			if reflect.PointerTo(ty).Implements(marshaler) {
				leaves++ // Counter, Gauge, MaxGauge, Timer render their own value
				return
			}
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				if !f.IsExported() {
					continue
				}
				name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
				if name == "" || name == "-" || strings.Contains(opts, "omitempty") {
					t.Errorf("%s.%s: json tag %q; want a key, without omitempty", path, f.Name, f.Tag.Get("json"))
				}
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Bool, reflect.Int, reflect.Int64:
			leaves++
		default:
			t.Errorf("%s: %s does not render as a number or bool", path, ty)
		}
	}
	sink := reflect.TypeOf((*Sink)(nil)).Elem()
	for i := 0; i < sink.NumField(); i++ {
		walk(sink.Field(i).Name, sink.Field(i).Type)
	}
	walk("Fleet", reflect.TypeOf((*Fleet)(nil)).Elem())
	walk("Plan", reflect.TypeOf(memacct.Plan{}))
	if leaves < 60 {
		t.Fatalf("walk reached %d values; the groups alone declare more", leaves)
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
