package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phylomem/internal/telemetry"
)

// TestRunCoversAllIndices checks the chunked range distribution: every index
// in [0, n) must be visited exactly once, for a grid of sizes, grains, and
// worker counts.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers)
		defer p.Close()
		for _, n := range []int{0, 1, 2, 3, 16, 100, 1023} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				t.Run(fmt.Sprintf("w%d_n%d_g%d", workers, n, grain), func(t *testing.T) {
					counts := make([]atomic.Int32, n)
					p.Run(n, grain, func(lo, hi, worker int) {
						if lo < 0 || hi > n || lo >= hi {
							t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
						}
						if worker < 0 || worker >= p.Size() {
							t.Errorf("worker id %d outside [0,%d)", worker, p.Size())
						}
						for i := lo; i < hi; i++ {
							counts[i].Add(1)
						}
					})
					for i := range counts {
						if c := counts[i].Load(); c != 1 {
							t.Fatalf("index %d visited %d times", i, c)
						}
					}
				})
			}
		}
	}
}

func TestForEach(t *testing.T) {
	p := New(3)
	defer p.Close()
	const n = 500
	var sum atomic.Int64
	p.ForEach(n, func(i, worker int) { sum.Add(int64(i)) })
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestPanicPropagates runs a panicking task under -race: the panic must
// surface on the submitting goroutine, the pool must not deadlock, and it
// must remain usable for subsequent jobs.
func TestPanicPropagates(t *testing.T) {
	p := New(4)
	defer p.Close()
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("unexpected panic value %v", r)
				}
			}()
			p.Run(1000, 1, func(lo, hi, worker int) {
				if lo == 500 {
					panic("boom")
				}
			})
		}()
	}
	// The pool must still complete ordinary work after a panicking job.
	var visited atomic.Int64
	p.Run(256, 1, func(lo, hi, worker int) { visited.Add(int64(hi - lo)) })
	if visited.Load() != 256 {
		t.Fatalf("post-panic run visited %d of 256 indices", visited.Load())
	}
}

// TestNestedSubmission submits jobs from inside a running job; the inner job
// must complete (the inner submitter helps itself) even though every pool
// worker may be busy with the outer job.
func TestNestedSubmission(t *testing.T) {
	p := New(2)
	defer p.Close()
	var inner atomic.Int64
	p.Run(8, 1, func(lo, hi, worker int) {
		p.Run(16, 1, func(lo, hi, w int) { inner.Add(int64(hi - lo)) })
	})
	if inner.Load() != 8*16 {
		t.Fatalf("inner work = %d, want %d", inner.Load(), 8*16)
	}
}

// TestConcurrentSubmitters checks that independent goroutines can share one
// pool safely.
func TestConcurrentSubmitters(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForEach(300, func(i, worker int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if total.Load() != 6*300 {
		t.Fatalf("total = %d, want %d", total.Load(), 6*300)
	}
}

// TestCloseThenRun: a closed pool degrades to inline execution rather than
// panicking on the closed channel.
func TestCloseThenRun(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int64
	p.Run(100, 7, func(lo, hi, worker int) {
		if worker != p.Workers() {
			t.Errorf("inline worker id = %d, want helper id %d", worker, p.Workers())
		}
		n.Add(int64(hi - lo))
	})
	if n.Load() != 100 {
		t.Fatalf("visited %d of 100", n.Load())
	}
}

// TestBusyTimeAdvances: a chunk's time is in BusyTime by the time Run
// returns, also when a pool worker ran the chunk that finished the job — an
// end-of-run report reads the total right after its last job.
func TestBusyTimeAdvances(t *testing.T) {
	p := New(2)
	defer p.Close()
	const nap = 5 * time.Millisecond
	before := p.BusyTime()
	workerNapping := make(chan struct{})
	var once sync.Once
	p.Run(4, 1, func(lo, hi, worker int) {
		if worker == p.Workers() {
			<-workerNapping // the submitter is done long before the sleeper
			return
		}
		once.Do(func() { close(workerNapping) })
		time.Sleep(nap)
	})
	if got := p.BusyTime() - before; got < nap {
		t.Fatalf("busy time advanced by %v over a job with a %v chunk", got, nap)
	}
}

// TestRunContextPreCancelled: a cancelled context fails fast without
// executing anything.
func TestRunContextPreCancelled(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	err := p.RunContext(ctx, 1000, 1, func(lo, hi, worker int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d chunks ran under a pre-cancelled context", ran.Load())
	}
}

// TestRunContextCancelMidJob cancels from inside the job: the remaining
// chunks are abandoned, executed ranges stay whole (never a partial range),
// and RunContext returns ctx.Err() after all in-flight chunks finish.
func TestRunContextCancelMidJob(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var executed atomic.Int64
	n, grain := 10000, 10
	err := p.RunContext(ctx, n, grain, func(lo, hi, worker int) {
		if hi-lo > grain {
			t.Errorf("range [%d,%d) exceeds grain", lo, hi)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			if seen[i] {
				t.Errorf("index %d executed twice", i)
			}
			seen[i] = true
		}
		mu.Unlock()
		if executed.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got >= int64((n+grain-1)/grain) {
		t.Fatalf("all %d chunks executed despite cancellation", got)
	}
	// The pool survives cancellation: the next job runs to completion.
	var count atomic.Int64
	if err := p.RunContext(context.Background(), 100, 1, func(lo, hi, worker int) {
		count.Add(int64(hi - lo))
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("follow-up job covered %d of 100 indices", count.Load())
	}
}

// TestForEachContextCancelled mirrors the engine's phase-1 usage.
func TestForEachContextCancelled(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.ForEachContext(ctx, 50, func(i, worker int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachContext = %v, want context.Canceled", err)
	}
	if err := p.ForEachContext(context.Background(), 50, func(i, worker int) {}); err != nil {
		t.Fatalf("ForEachContext with live context: %v", err)
	}
}

// TestPoolTelemetry attaches a telemetry group and checks the per-worker
// chunk counts sum to exactly the chunks of every job, with the busy time
// mirrored into the group.
func TestPoolTelemetry(t *testing.T) {
	p := New(4)
	defer p.Close()
	tel := &telemetry.Pool{}
	tel.Init(p.Size())
	p.SetTelemetry(tel)

	const jobs, n, grain = 5, 1000, 10
	for j := 0; j < jobs; j++ {
		// Pool workers wait inside their chunk until the submitter has run
		// one of this job's chunks: four held workers hold four of the 100
		// chunks, so the submitter always claims one and records the job.
		submitterRan := make(chan struct{})
		var once sync.Once
		p.Run(n, grain, func(lo, hi, worker int) {
			if worker < 0 || worker >= p.Size() {
				t.Errorf("worker id %d outside [0,%d)", worker, p.Size())
			}
			if worker == p.Workers() {
				once.Do(func() { close(submitterRan) })
			}
			<-submitterRan
		})
	}
	if got := tel.JobsSubmitted.Load(); got != jobs {
		t.Fatalf("JobsSubmitted = %d, want %d", got, jobs)
	}
	var chunks uint64
	for i := range tel.Workers {
		chunks += tel.Workers[i].Chunks.Load()
	}
	if want := uint64(jobs * n / grain); chunks != want {
		t.Fatalf("chunk total = %d, want %d", chunks, want)
	}
	// The submitter always participates, so its helper slot saw every job.
	if got := tel.Worker(p.Workers()).Jobs.Load(); got != jobs {
		t.Fatalf("submitter jobs = %d, want %d", got, jobs)
	}
}

// TestPoolTelemetryInlinePath covers the single-worker / small-job inline
// execution: the submitting goroutine's helper slot gets the chunk.
func TestPoolTelemetryInlinePath(t *testing.T) {
	p := New(1)
	defer p.Close()
	tel := &telemetry.Pool{}
	tel.Init(p.Size())
	p.SetTelemetry(tel)
	p.Run(100, 10, func(lo, hi, worker int) {})
	if got := tel.Worker(p.Workers()).Chunks.Load(); got != 1 {
		t.Fatalf("inline chunks = %d, want 1", got)
	}
	if got := tel.JobsSubmitted.Load(); got != 1 {
		t.Fatalf("JobsSubmitted = %d, want 1", got)
	}
	if tel.Worker(p.Workers()).Busy.Load() < 0 {
		t.Fatal("negative busy time")
	}
}
