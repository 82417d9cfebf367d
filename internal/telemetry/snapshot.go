package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
)

// Snapshot is the telemetry section of every --stats-json report and the one
// declaration of its schema. Sink.Snapshot fills the keys the sink's live
// groups own; the engine's Report fills the rest (amc, spill, dedup.queries_*,
// the kernel and scoring levels, scoring.phase2_*, lookup_build_ns) from the
// slot manager's and its own state. All keys are always present (no
// omitempty): the determinism CI gate diffs the key schema across thread
// counts, so a field must not appear or vanish depending on configuration.
// Counter values may legitimately differ across runs; the key set must not.
type Snapshot struct {
	AMC      AMCSnapshot      `json:"amc"`
	Pool     PoolSnapshot     `json:"pool"`
	Pipeline PipelineSnapshot `json:"pipeline"`
	Server   ServerSnapshot   `json:"server"`
	Dedup    DedupSnapshot    `json:"dedup"`
	Kernel   KernelSnapshot   `json:"kernel"`
	Spill    SpillSnapshot    `json:"spill"`
	Scoring  ScoringSnapshot  `json:"scoring"`
}

// AMCSnapshot is the slot manager section of a Snapshot.
type AMCSnapshot struct {
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Evictions         uint64 `json:"evictions"`
	RecomputeLeafWork uint64 `json:"recompute_leaf_work"`
	PinHighWater      int64  `json:"pin_high_water"`
}

// WorkerSnapshot is one pool participant's section of a Snapshot.
type WorkerSnapshot struct {
	ID     int    `json:"id"`
	Chunks uint64 `json:"chunks"`
	Jobs   uint64 `json:"jobs"`
	BusyNS int64  `json:"busy_ns"`
}

// PoolSnapshot is the worker pool section of a Snapshot.
type PoolSnapshot struct {
	JobsSubmitted uint64           `json:"jobs_submitted"`
	Workers       []WorkerSnapshot `json:"workers"`
}

// HistogramSnapshot is the rendered form of a Histogram. Bucket i counts
// observations with floor(d in µs) in [2^(i-1), 2^i); bucket 0 is
// sub-microsecond; the last bucket absorbs the tail.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MaxNS   int64    `json:"max_ns"`
	Buckets []uint64 `json:"buckets"`
}

// PipelineSnapshot is the streaming pipeline section of a Snapshot.
type PipelineSnapshot struct {
	ChunksRead        uint64            `json:"chunks_read"`
	ChunksPlaced      uint64            `json:"chunks_placed"`
	ChunksEmitted     uint64            `json:"chunks_emitted"`
	QueriesRead       uint64            `json:"queries_read"`
	ReadBusyNS        int64             `json:"read_busy_ns"`
	PlaceBusyNS       int64             `json:"place_busy_ns"`
	EmitBusyNS        int64             `json:"emit_busy_ns"`
	PlaceWaitNS       int64             `json:"place_wait_ns"`
	LookupBuildNS     int64             `json:"lookup_build_ns"`
	PrefetchHighWater int64             `json:"prefetch_high_water"`
	PlaceLatency      HistogramSnapshot `json:"place_latency"`
}

// ServerSnapshot is the placement-service section of a Snapshot: request
// admission, 429 backpressure, and micro-batch coalescing. All-zero for CLI
// runs (the key set is schema-stable regardless of how the sink was used).
type ServerSnapshot struct {
	Requests        uint64            `json:"requests"`
	Rejected        uint64            `json:"rejected"`
	QueriesReceived uint64            `json:"queries_received"`
	Batches         uint64            `json:"batches"`
	BatchedRequests uint64            `json:"batched_requests"`
	BatchedQueries  uint64            `json:"batched_queries"`
	RequestLatency  HistogramSnapshot `json:"request_latency"`
	BatchLatency    HistogramSnapshot `json:"batch_latency"`
}

// DedupSnapshot is the redundancy-elimination section of a Snapshot:
// in-flight query dedup plus the content-addressed result cache. All-zero
// when dedup is disabled or no cache is configured (the key set is
// schema-stable regardless).
type DedupSnapshot struct {
	QueriesSeen      uint64 `json:"queries_seen"`
	QueriesDistinct  uint64 `json:"queries_distinct"`
	DuplicatesFolded uint64 `json:"duplicates_folded"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	CacheInserts     uint64 `json:"cache_inserts"`
	CacheEvictions   uint64 `json:"cache_evictions"`
	CachedBytes      int64  `json:"cached_bytes"`
	CachedEntries    int64  `json:"cached_entries"`
}

// KernelSnapshot is the tiled placement-kernel section of a Snapshot: the
// resolved tile dimensions and the tile/call/resident-bytes activity of
// phase 1. All-zero when the engine
// placed no queries (the key set is schema-stable regardless).
type KernelSnapshot struct {
	TileQueries        int64  `json:"tile_queries"`
	TileBranches       int64  `json:"tile_branches"`
	TilesExecuted      uint64 `json:"tiles_executed"`
	BlockKernelCalls   uint64 `json:"block_kernel_calls"`
	BlockResidentBytes int64  `json:"block_resident_bytes"`
}

// SpillSnapshot is the tiered CLV-eviction section of a Snapshot: records
// spilled to the disk tier, materializations satisfied by reload instead of
// recomputation (with the leaf work those reloads saved), degraded-around
// I/O errors, and the measured byte/time volumes the hybrid policy's
// bandwidth estimate is made of. All-zero when spill is disabled (the key
// set is schema-stable regardless).
type SpillSnapshot struct {
	Writes              uint64 `json:"writes"`
	Reloads             uint64 `json:"reloads"`
	Errors              uint64 `json:"errors"`
	BytesWritten        uint64 `json:"bytes_written"`
	BytesReloaded       uint64 `json:"bytes_reloaded"`
	ReloadLeafWorkSaved uint64 `json:"reload_leaf_work_saved"`
	WriteNS             int64  `json:"write_ns"`
	ReloadNS            int64  `json:"reload_ns"`
	SpilledEntries      int64  `json:"spilled_entries"`
}

// ScoringSnapshot is the uncertainty-aware scoring section of a Snapshot:
// the configured mode and quadrature orders, the posterior integration
// path's activity, and the per-query EDPL computations. All-zero for plain
// ML runs without EDPL (the key set is schema-stable regardless).
type ScoringSnapshot struct {
	BayesMode            int64  `json:"bayes_mode"`
	PendantNodes         int64  `json:"pendant_nodes"`
	ProximalNodes        int64  `json:"proximal_nodes"`
	EDPLEnabled          int64  `json:"edpl_enabled"`
	CandidatesIntegrated uint64 `json:"candidates_integrated"`
	QuadEvals            uint64 `json:"quad_evals"`
	IntegrateNS          int64  `json:"integrate_ns"`
	EDPLQueries          uint64 `json:"edpl_queries"`
	EDPLNS               int64  `json:"edpl_ns"`

	Phase2Evals           uint64 `json:"phase2_evals"`
	Phase2CLVUpdates      uint64 `json:"phase2_clv_updates"`
	Phase2PatternsUpdated uint64 `json:"phase2_patterns_updated"`
	Phase2PatternsFull    uint64 `json:"phase2_patterns_full"`
}

// FleetSnapshot is the JSON-marshalable view of a Fleet group, the
// registry-level section of the placed /metrics document. Like Snapshot,
// every key is always present so the CI schema diff holds across fleet
// configurations.
type FleetSnapshot struct {
	EnginesBuilt   uint64 `json:"engines_built"`
	EnginesShrunk  uint64 `json:"engines_shrunk"`
	EnginesDemoted uint64 `json:"engines_demoted"`
	EnginesEvicted uint64 `json:"engines_evicted"`
	BuildRejected  uint64 `json:"build_rejected"`
	BytesReclaimed uint64 `json:"bytes_reclaimed"`
	TenantsWarm    int64  `json:"tenants_warm"`
}

// Snapshot renders the fleet group's current values. A nil group yields the
// zero snapshot.
func (f *Fleet) Snapshot() FleetSnapshot {
	if f == nil {
		return FleetSnapshot{}
	}
	return FleetSnapshot{
		EnginesBuilt:   f.EnginesBuilt.Load(),
		EnginesShrunk:  f.EnginesShrunk.Load(),
		EnginesDemoted: f.EnginesDemoted.Load(),
		EnginesEvicted: f.EnginesEvicted.Load(),
		BuildRejected:  f.BuildRejected.Load(),
		BytesReclaimed: f.BytesReclaimed.Load(),
		TenantsWarm:    f.TenantsWarm.Load(),
	}
}

// Snapshot renders the sink's current counter values, leaving the keys no
// sink group owns (listed on the Snapshot type) at zero: it is the sink's
// part of a report, not the report, and only Engine.Report completes it. Safe
// to call while the run is still mutating the sink; the values are then
// advisory. A nil sink yields the zero snapshot (with an empty worker list).
func (s *Sink) Snapshot() Snapshot {
	var out Snapshot
	out.Pool.Workers = []WorkerSnapshot{}
	out.Pipeline.PlaceLatency.Buckets = make([]uint64, HistBuckets)
	out.Server.RequestLatency.Buckets = make([]uint64, HistBuckets)
	out.Server.BatchLatency.Buckets = make([]uint64, HistBuckets)
	if s == nil {
		return out
	}
	out.Pool.JobsSubmitted = s.Pool.JobsSubmitted.Load()
	for i := range s.Pool.Workers {
		w := &s.Pool.Workers[i]
		out.Pool.Workers = append(out.Pool.Workers, WorkerSnapshot{
			ID:     i,
			Chunks: w.Chunks.Load(),
			Jobs:   w.Jobs.Load(),
			BusyNS: int64(w.Busy.Load()),
		})
	}
	p := &s.Pipeline
	out.Pipeline = PipelineSnapshot{
		ChunksRead:        p.ChunksRead.Load(),
		ChunksPlaced:      p.ChunksPlaced.Load(),
		ChunksEmitted:     p.ChunksEmitted.Load(),
		QueriesRead:       p.QueriesRead.Load(),
		ReadBusyNS:        int64(p.ReadBusy.Load()),
		PlaceBusyNS:       int64(p.PlaceBusy.Load()),
		EmitBusyNS:        int64(p.EmitBusy.Load()),
		PlaceWaitNS:       int64(p.PlaceWait.Load()),
		PrefetchHighWater: p.PrefetchHighWater.Load(),
		PlaceLatency:      p.PlaceLatency.snapshot(),
	}
	sv := &s.Server
	out.Server = ServerSnapshot{
		Requests:        sv.Requests.Load(),
		Rejected:        sv.Rejected.Load(),
		QueriesReceived: sv.QueriesReceived.Load(),
		Batches:         sv.Batches.Load(),
		BatchedRequests: sv.BatchedRequests.Load(),
		BatchedQueries:  sv.BatchedQueries.Load(),
		RequestLatency:  sv.RequestLatency.snapshot(),
		BatchLatency:    sv.BatchLatency.snapshot(),
	}
	d := &s.Dedup
	out.Dedup = DedupSnapshot{
		CacheHits:      d.CacheHits.Load(),
		CacheMisses:    d.CacheMisses.Load(),
		CacheInserts:   d.CacheInserts.Load(),
		CacheEvictions: d.CacheEvictions.Load(),
		CachedBytes:    d.CachedBytes.Load(),
		CachedEntries:  d.CachedEntries.Load(),
	}
	k := &s.Kernel
	out.Kernel = KernelSnapshot{
		TilesExecuted:      k.TilesExecuted.Load(),
		BlockKernelCalls:   k.BlockKernelCalls.Load(),
		BlockResidentBytes: k.BlockResidentBytes.Load(),
	}
	sc := &s.Scoring
	out.Scoring = ScoringSnapshot{
		CandidatesIntegrated: sc.CandidatesIntegrated.Load(),
		QuadEvals:            sc.QuadEvals.Load(),
		IntegrateNS:          int64(sc.IntegrateTime.Load()),
		EDPLQueries:          sc.EDPLQueries.Load(),
		EDPLNS:               int64(sc.EDPLTime.Load()),
	}
	return out
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
