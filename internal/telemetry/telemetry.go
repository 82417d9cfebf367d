// Package telemetry is the observability layer: cheap atomic counters,
// monotonic timers, and fixed-bucket latency histograms that the hot paths
// update behind a nil check and that render themselves into the --stats-json
// report. The paper's central claim is a measurable
// memory↔runtime trade-off (slot-pool size versus recomputation, lookup
// memoization, chunked streaming); the report exposes the quantities that
// trade-off is made of without perturbing the runs being measured.
//
// Design notes:
//
//   - One owner per counter (DESIGN.md, "Observability"): a live atomic
//     exists here only for a fact updated off the engine's serialized path
//     that no other component already owns. What the slot manager and the
//     engine count themselves stays there; placement/report.go declares
//     those keys and fills them at report time.
//   - One declaration per key: the group struct that holds the atomics
//     carries the json tags, and Counter, Gauge, MaxGauge and Timer marshal
//     as the number they hold (pointer receivers — a report holds the groups
//     by pointer, so nothing is copied). No tag uses omitempty: CI diffs the
//     key schema across thread counts, so a key must not depend on its value.
//   - Disabled means nil. Every group type has nil-receiver-safe methods, so
//     instrumented code calls e.pipe.ChunkPlaced(d) unconditionally and a
//     run without telemetry pays one predictable branch per event and zero
//     allocations. Build tags would make the instrumented and
//     uninstrumented binaries diverge; a nil sink keeps one binary and one
//     code path.
//   - All mutation is atomic. A report marshalled mid-run is advisory (not
//     cut atomically across counters), which is fine for a scrape.
//   - Counters measure events; Timers accumulate monotonic wall time;
//     Histograms bucket durations by power-of-two microseconds. None of
//     them allocate after construction.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// SchemaVersion identifies the --stats-json layout. Bump on any key rename
// or removal; additions are backward compatible.
const SchemaVersion = 3

// Counter is an atomic event counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// MarshalJSON renders the current count.
func (c *Counter) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, c.v.Load(), 10), nil }

// Gauge tracks a current value (a level, not an event count): cached bytes,
// entry counts. Unlike MaxGauge it can go down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MarshalJSON renders the current value.
func (g *Gauge) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, g.v.Load(), 10), nil }

// MaxGauge tracks the maximum value ever observed (a high-water mark).
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to v if v exceeds the current maximum.
func (g *MaxGauge) Observe(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// MarshalJSON renders the high-water mark.
func (g *MaxGauge) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, g.v.Load(), 10), nil }

// Timer accumulates elapsed monotonic time.
type Timer struct{ ns atomic.Int64 }

// Add accumulates d.
func (t *Timer) Add(d time.Duration) { t.ns.Add(int64(d)) }

// Load returns the accumulated duration.
func (t *Timer) Load() time.Duration { return time.Duration(t.ns.Load()) }

// MarshalJSON renders the accumulated duration in nanoseconds.
func (t *Timer) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, t.ns.Load(), 10), nil }

// HistBuckets is the number of duration histogram buckets. Bucket i counts
// observations with floor(d in µs) in [2^(i-1), 2^i), bucket 0 counts
// sub-microsecond observations, and the last bucket absorbs the tail
// (≥ ~35 minutes) — wide enough for any per-chunk latency.
const HistBuckets = 32

// Histogram buckets durations by power-of-two microseconds and tracks the
// count, sum, and maximum. Observations are lock-free.
type Histogram struct {
	Count   Counter              `json:"count"`
	Sum     Timer                `json:"sum_ns"`
	Max     MaxGauge             `json:"max_ns"`
	Buckets [HistBuckets]Counter `json:"buckets"`
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Count.Inc()
	h.Sum.Add(d)
	h.Max.Observe(int64(d))
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i].Inc()
}

// WorkerStats is one pool participant's activity. The trailing pad keeps
// adjacent workers' counters on separate cache lines so telemetry never
// introduces false sharing between workers.
type WorkerStats struct {
	ID     int     `json:"id"`      // participant id (index in Pool.Workers), set by Init
	Chunks Counter `json:"chunks"`  // work chunks executed
	Jobs   Counter `json:"jobs"`    // distinct jobs participated in
	Busy   Timer   `json:"busy_ns"` // wall time spent executing chunks
	_      [32]byte
}

// Pool counts the shared worker pool's activity per participant. Ids index
// Workers: [0, n-1) are pool goroutines, the last id is the submitting
// goroutine's helper slot, so "chunks claimed by id < workers" versus the
// helper id separates stolen work from submitter participation.
type Pool struct {
	JobsSubmitted Counter       `json:"jobs_submitted"`
	Workers       []WorkerStats `json:"workers"`
}

// Init sizes the per-worker slots; call once before handing the group to a
// pool. n is parallel.Pool.Size() (workers + the submitter's helper id).
func (p *Pool) Init(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.Workers = make([]WorkerStats, n)
	for i := range p.Workers {
		p.Workers[i].ID = i
	}
}

// Worker returns the stats slot for a participant id, or nil when telemetry
// is disabled or the id is out of range (a pool resized after Init).
func (p *Pool) Worker(id int) *WorkerStats {
	if p == nil || id < 0 || id >= len(p.Workers) {
		return nil
	}
	return &p.Workers[id]
}

// JobStart records one Run submission.
func (p *Pool) JobStart() {
	if p == nil {
		return
	}
	p.JobsSubmitted.Inc()
}

// Chunk records one executed chunk for a participant.
func (w *WorkerStats) Chunk() {
	if w == nil {
		return
	}
	w.Chunks.Inc()
}

// Job records one job participation for a participant.
func (w *WorkerStats) Job() {
	if w == nil {
		return
	}
	w.Jobs.Inc()
}

// AddBusy accumulates chunk-execution wall time for a participant.
func (w *WorkerStats) AddBusy(d time.Duration) {
	if w == nil {
		return
	}
	w.Busy.Add(d)
}

// Pipeline counts the chunked streaming pipeline's activity: stage
// occupancy (time each stage spent busy), prefetch depth, and per-chunk
// place latency. The reader and the placer (which also emits) update it
// from their own goroutines.
type Pipeline struct {
	ChunksRead    Counter `json:"chunks_read"`
	ChunksPlaced  Counter `json:"chunks_placed"`
	ChunksEmitted Counter `json:"chunks_emitted"`
	QueriesRead   Counter `json:"queries_read"`

	ReadBusy  Timer `json:"read_busy_ns"`  // reader stage: decoding + validating chunks
	PlaceBusy Timer `json:"place_busy_ns"` // placer stage: inside placeChunk
	EmitBusy  Timer `json:"emit_busy_ns"`  // placer emitting: inside the sink
	PlaceWait Timer `json:"place_wait_ns"` // placer idle, waiting for the next chunk

	prefetchNow       atomic.Int64
	PrefetchHighWater MaxGauge  `json:"prefetch_high_water"`
	PlaceLatency      Histogram `json:"place_latency"` // per-chunk place latency
}

// ChunkRead records one decoded chunk of n queries taking d.
func (p *Pipeline) ChunkRead(n int, d time.Duration) {
	if p == nil {
		return
	}
	p.ChunksRead.Inc()
	p.QueriesRead.Add(uint64(n))
	p.ReadBusy.Add(d)
}

// ChunkPlaced records one placed chunk taking d.
func (p *Pipeline) ChunkPlaced(d time.Duration) {
	if p == nil {
		return
	}
	p.ChunksPlaced.Inc()
	p.PlaceBusy.Add(d)
	p.PlaceLatency.Observe(d)
}

// ChunkEmitted records one chunk delivered to the sink taking d.
func (p *Pipeline) ChunkEmitted(d time.Duration) {
	if p == nil {
		return
	}
	p.ChunksEmitted.Inc()
	p.EmitBusy.Add(d)
}

// AddPlaceWait accumulates placer idle time.
func (p *Pipeline) AddPlaceWait(d time.Duration) {
	if p == nil {
		return
	}
	p.PlaceWait.Add(d)
}

// PrefetchInc records one chunk entering the prefetch buffer and updates the
// depth high-water mark.
func (p *Pipeline) PrefetchInc() {
	if p == nil {
		return
	}
	p.PrefetchHighWater.Observe(p.prefetchNow.Add(1))
}

// PrefetchDec records one chunk leaving the prefetch buffer.
func (p *Pipeline) PrefetchDec() {
	if p == nil {
		return
	}
	p.prefetchNow.Add(-1)
}

// Server counts a placement service's request-level activity: admissions,
// 429 backpressure rejections, micro-batch coalescing, and the three latency
// distributions that matter for serving — per-request (admission to
// response, what a client sees), per-request queue wait (batcher submit to
// the start of the engine batch that carries the request) and per-batch
// (inside the engine, what the coalescer amortizes). Handlers and the
// batcher update it concurrently.
type Server struct {
	Requests        Counter   `json:"requests"`         // requests admitted past admission control
	Rejected        Counter   `json:"rejected"`         // requests refused admission (429 backpressure)
	QueriesReceived Counter   `json:"queries_received"` // queries across admitted requests
	Batches         Counter   `json:"batches"`          // engine flushes
	BatchedRequests Counter   `json:"batched_requests"` // requests coalesced across all flushes
	BatchedQueries  Counter   `json:"batched_queries"`  // queries placed across all flushes
	RequestLatency  Histogram `json:"request_latency"`
	QueueWait       Histogram `json:"queue_wait"`
	BatchLatency    Histogram `json:"batch_latency"`
}

// Admit records one admitted request carrying n queries.
func (s *Server) Admit(n int) {
	if s == nil {
		return
	}
	s.Requests.Inc()
	s.QueriesReceived.Add(uint64(n))
}

// Reject records one request refused admission.
func (s *Server) Reject() {
	if s == nil {
		return
	}
	s.Rejected.Inc()
}

// RequestDone records one admitted request's end-to-end latency.
func (s *Server) RequestDone(d time.Duration) {
	if s == nil {
		return
	}
	s.RequestLatency.Observe(d)
}

// QueueWaited records how long one request waited in the batcher before
// the engine batch carrying it started.
func (s *Server) QueueWaited(d time.Duration) {
	if s == nil {
		return
	}
	s.QueueWait.Observe(d)
}

// BatchFlush records one engine flush of nQueries coalesced from nRequests.
func (s *Server) BatchFlush(nQueries, nRequests int, d time.Duration) {
	if s == nil {
		return
	}
	s.Batches.Inc()
	s.BatchedRequests.Add(uint64(nRequests))
	s.BatchedQueries.Add(uint64(nQueries))
	s.BatchLatency.Observe(d)
}

// Dedup counts the cross-request content-addressed result cache's activity,
// updated from HTTP handlers: CacheHits is work converted into an O(1)
// lookup. CachedBytes/CachedEntries are levels (the cache's current accounted
// footprint), not event counts — the cache shrinks under memory pressure, so
// they go down as well as up. The in-flight dedup counts of the same report
// section (queries seen/distinct/folded) are the engine's RunStats.
type Dedup struct {
	CacheHits      Counter `json:"cache_hits"`
	CacheMisses    Counter `json:"cache_misses"`
	CacheInserts   Counter `json:"cache_inserts"`
	CacheEvictions Counter `json:"cache_evictions"`
	CachedBytes    Gauge   `json:"cached_bytes"`
	CachedEntries  Gauge   `json:"cached_entries"`
}

// CacheHit records one result served from the cache.
func (d *Dedup) CacheHit() {
	if d == nil {
		return
	}
	d.CacheHits.Inc()
}

// CacheMiss records one lookup that fell through to placement.
func (d *Dedup) CacheMiss() {
	if d == nil {
		return
	}
	d.CacheMisses.Inc()
}

// CacheInsert records one result added to the cache.
func (d *Dedup) CacheInsert() {
	if d == nil {
		return
	}
	d.CacheInserts.Inc()
}

// CacheEvict records n entries evicted (capacity or memory pressure).
func (d *Dedup) CacheEvict(n int) {
	if d == nil || n <= 0 {
		return
	}
	d.CacheEvictions.Add(uint64(n))
}

// SetCacheSize records the cache's current accounted footprint.
func (d *Dedup) SetCacheSize(bytes int64, entries int) {
	if d == nil {
		return
	}
	d.CachedBytes.Set(bytes)
	d.CachedEntries.Set(int64(entries))
}

// Kernel counts the tiled phase-1 placement kernels' activity, updated from
// pool workers: the number of query-tile × branch-tile tasks executed, the
// number of block-kernel invocations (one per branch per query tile), and the
// high-water mark of the bytes a tile keeps cache-resident (its SoA code
// block, accumulators, and one prescore row or branch CLV).
type Kernel struct {
	TilesExecuted      Counter  `json:"tiles_executed"`
	BlockKernelCalls   Counter  `json:"block_kernel_calls"`
	BlockResidentBytes MaxGauge `json:"block_resident_bytes"`
}

// TileDone records one executed tile: its block-kernel call count and its
// cache-resident byte footprint.
func (k *Kernel) TileDone(calls int, residentBytes int64) {
	if k == nil {
		return
	}
	k.TilesExecuted.Inc()
	k.BlockKernelCalls.Add(uint64(calls))
	k.BlockResidentBytes.Observe(residentBytes)
}

// Scoring counts the uncertainty-aware scoring layer's activity: the
// number of phase-2 candidates scored by the posterior integration path with
// their quadrature-node likelihood evaluations and wall time, and the
// per-query EDPL computations. The integration counters are updated
// concurrently from phase-2 workers; EDPL is recorded once per chunk by the
// placer.
type Scoring struct {
	CandidatesIntegrated Counter `json:"candidates_integrated"` // candidates scored by the posterior path
	QuadEvals            Counter `json:"quad_evals"`            // grid-node likelihood evaluations
	IntegrateTime        Timer   `json:"integrate_ns"`          // wall time inside the integration path

	EDPLQueries Counter `json:"edpl_queries"` // queries with a computed EDPL
	EDPLTime    Timer   `json:"edpl_ns"`      // wall time computing EDPL
}

// CandidateIntegrated records one candidate's posterior integration: its
// grid-node likelihood evaluations and wall time.
func (s *Scoring) CandidateIntegrated(evals int, d time.Duration) {
	if s == nil {
		return
	}
	s.CandidatesIntegrated.Inc()
	s.QuadEvals.Add(uint64(evals))
	s.IntegrateTime.Add(d)
}

// EDPLDone records one chunk's EDPL pass over n queries.
func (s *Scoring) EDPLDone(n int, d time.Duration) {
	if s == nil {
		return
	}
	s.EDPLQueries.Add(uint64(n))
	s.EDPLTime.Add(d)
}

// Fleet counts an engine registry's lifecycle activity: lazy construction,
// the controller's three reclaim levers in escalation order (slot-pool
// shrink, CLV demotion to the spill tier, whole-engine eviction), and the
// bytes those levers handed back to the global budget. TenantsWarm is a
// level — the number of currently constructed engines. Unlike the Sink
// groups (one per engine), one Fleet group serves the whole registry; it is
// updated under the registry's own locks but stays atomic so /metrics can
// read it without them.
type Fleet struct {
	EnginesBuilt   Counter `json:"engines_built"`
	EnginesShrunk  Counter `json:"engines_shrunk"`  // slot-pool shrink operations applied
	EnginesDemoted Counter `json:"engines_demoted"` // full CLV demotions applied
	EnginesEvicted Counter `json:"engines_evicted"` // whole engines torn down for memory
	BuildRejected  Counter `json:"build_rejected"`  // constructions refused for lack of global headroom
	BytesReclaimed Counter `json:"bytes_reclaimed"` // bytes returned to the global budget by all levers
	TenantsWarm    Gauge   `json:"tenants_warm"`
}

// Build records one engine construction.
func (f *Fleet) Build() {
	if f == nil {
		return
	}
	f.EnginesBuilt.Inc()
}

// Reclaimed records one applied reclaim lever — lever is the group's
// EnginesShrunk, EnginesDemoted or EnginesEvicted — and the n bytes it freed.
func (f *Fleet) Reclaimed(lever *Counter, n int64) {
	if f == nil {
		return
	}
	lever.Inc()
	if n > 0 {
		f.BytesReclaimed.Add(uint64(n))
	}
}

// RejectBuild records one construction refused for lack of global headroom.
func (f *Fleet) RejectBuild() {
	if f == nil {
		return
	}
	f.BuildRejected.Inc()
}

// SetWarm records the current number of constructed engines.
func (f *Fleet) SetWarm(n int) {
	if f == nil {
		return
	}
	f.TenantsWarm.Set(int64(n))
}

// Sink aggregates one run's telemetry groups. Create one per engine; the
// engine hands &sink.Pool to the worker pool and updates sink.Pipeline,
// sink.Kernel and sink.Scoring itself; a placement server updates sink.Server
// from its handlers and batcher and sink.Dedup from its result cache. A nil
// *Sink disables everything.
type Sink struct {
	Pool     Pool
	Pipeline Pipeline
	Server   Server
	Dedup    Dedup
	Kernel   Kernel
	Scoring  Scoring
}

// NewSink returns an empty sink. Its pool has no participants until Init
// sizes it, and renders them as "workers": [] rather than null.
func NewSink() *Sink { return &Sink{Pool: Pool{Workers: []WorkerStats{}}} }

// PoolGroup returns &s.Pool, or nil for a nil sink.
func (s *Sink) PoolGroup() *Pool {
	if s == nil {
		return nil
	}
	return &s.Pool
}

// PipelineGroup returns &s.Pipeline, or nil for a nil sink.
func (s *Sink) PipelineGroup() *Pipeline {
	if s == nil {
		return nil
	}
	return &s.Pipeline
}

// ServerGroup returns &s.Server, or nil for a nil sink.
func (s *Sink) ServerGroup() *Server {
	if s == nil {
		return nil
	}
	return &s.Server
}

// DedupGroup returns &s.Dedup, or nil for a nil sink.
func (s *Sink) DedupGroup() *Dedup {
	if s == nil {
		return nil
	}
	return &s.Dedup
}

// KernelGroup returns &s.Kernel, or nil for a nil sink.
func (s *Sink) KernelGroup() *Kernel {
	if s == nil {
		return nil
	}
	return &s.Kernel
}

// ScoringGroup returns &s.Scoring, or nil for a nil sink.
func (s *Sink) ScoringGroup() *Scoring {
	if s == nil {
		return nil
	}
	return &s.Scoring
}

// WriteJSONFile marshals v with indentation and writes it atomically enough
// for CI consumption (full write + close before rename is overkill here; a
// stats file is written once at end of run).
func WriteJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
