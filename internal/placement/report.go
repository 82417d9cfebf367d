package placement

import (
	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/telemetry"
)

// Report is the structured --stats-json document: a superset of RunStats
// with the budget plan, the memory accounting (current and per-category
// peak), and the telemetry section. Every key is always present — the
// determinism CI gate diffs the key schema across thread counts, so nothing
// here uses omitempty. Durations are reported as nanosecond integers.
//
// A Report is not a snapshot: run_stats, plan, memory and the engine- and
// manager-owned telemetry keys are cut when Report() is called, but the sink's
// groups are held by pointer and read when the value is marshalled (see
// TelemetryReport). Marshal it before the engine, or anything else writing to
// the same sink, places further queries; kept past that it mixes two instants.
// (Close does not touch the sink, so a report of a finished run on a sink of
// its own stays exact — the experiments recorder relies on that.) The type
// marshals only; readers decode into a struct naming the keys they need.
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	RunStats      RunStatsReport  `json:"run_stats"`
	Plan          PlanSection     `json:"plan"`
	Memory        MemoryReport    `json:"memory"`
	Telemetry     TelemetryReport `json:"telemetry"`
}

// RunStatsReport is RunStats rendered with stable snake_case keys.
type RunStatsReport struct {
	QueriesPlaced     int     `json:"queries_placed"`
	QueriesSkipped    int     `json:"queries_skipped"`
	QueriesDistinct   int     `json:"queries_distinct"`
	QueriesDeduped    int     `json:"queries_deduped"`
	ChunksProcessed   int     `json:"chunks_processed"`
	Phase1NS          int64   `json:"phase1_ns"`
	Phase2NS          int64   `json:"phase2_ns"`
	PrecomputeNS      int64   `json:"precompute_ns"`
	LookupBuildNS     int64   `json:"lookup_build_ns"`
	LookupWorkers     int     `json:"lookup_workers"`
	ThreadsUsed       int     `json:"threads_used"`
	ChunkReadNS       int64   `json:"chunk_read_ns"`
	ChunkWaitNS       int64   `json:"chunk_wait_ns"`
	PlaceWallNS       int64   `json:"place_wall_ns"`
	PoolBusyNS        int64   `json:"pool_busy_ns"`
	PoolParticipants  int     `json:"pool_participants"`
	PoolUtilization   float64 `json:"pool_utilization"`
	CLVHits           uint64  `json:"clv_hits"`
	CLVRecomputes     uint64  `json:"clv_recomputes"`
	CLVEvictions      uint64  `json:"clv_evictions"`
	RecomputeLeafWork uint64  `json:"recompute_leaf_work"`
	SpillWrites       uint64  `json:"spill_writes"`
	SpillReloads      uint64  `json:"spill_reloads"`
	SpillErrors       uint64  `json:"spill_errors"`
	SpillLeafWork     uint64  `json:"spill_reload_leaf_work_saved"`

	// Phase-2 unit costs (see RunStats).
	Phase2Evals           int64 `json:"phase2_evals"`
	Phase2CLVUpdates      int64 `json:"phase2_clv_updates"`
	Phase2PatternsUpdated int64 `json:"phase2_patterns_updated"`
	Phase2PatternsFull    int64 `json:"phase2_patterns_full"`

	// Uncertainty-aware scoring (see bayes.go). ScoringMode is "ml" or
	// "bayes"; the EDPL aggregates are zero when Config.EDPL is off.
	ScoringMode          string  `json:"scoring_mode"`
	CandidatesIntegrated int     `json:"candidates_integrated"`
	EDPLCount            int     `json:"edpl_count"`
	EDPLMean             float64 `json:"edpl_mean"`
	EDPLMax              float64 `json:"edpl_max"`
}

// PlanSection is the plan section of a Report: the planner's decision (keys
// declared on memacct.Plan) beside the limit it was planned against.
type PlanSection struct {
	memacct.Plan
	MaxMemBytes int64 `json:"max_mem_bytes"`
}

// MemoryReport is the accounting section of a Report. PeakBytes is the
// maximum instantaneous accounted total; PeakBreakdown holds each
// category's own peak (the sum over categories generally exceeds
// PeakBytes — each category peaks at its own moment).
type MemoryReport struct {
	PeakBytes     int64            `json:"peak_bytes"`
	CurrentBytes  int64            `json:"current_bytes"`
	PlannedBytes  int64            `json:"planned_bytes"`
	Breakdown     map[string]int64 `json:"breakdown"`
	PeakBreakdown map[string]int64 `json:"peak_breakdown"`
}

// Report renders the engine's current state as the --stats-json document.
// Safe to call at any point; CLIs call it once after the run (before Close,
// which releases the persistent accounting categories).
func (e *Engine) Report() Report {
	s := e.Stats()
	return Report{
		SchemaVersion: telemetry.SchemaVersion,
		RunStats: RunStatsReport{
			QueriesPlaced:     s.QueriesPlaced,
			QueriesSkipped:    s.QueriesSkipped,
			QueriesDistinct:   s.QueriesDistinct,
			QueriesDeduped:    s.QueriesDeduped,
			ChunksProcessed:   s.ChunksProcessed,
			Phase1NS:          int64(s.Phase1),
			Phase2NS:          int64(s.Phase2),
			PrecomputeNS:      int64(s.Precompute),
			LookupBuildNS:     int64(s.LookupBuild),
			LookupWorkers:     s.LookupWorkers,
			ThreadsUsed:       s.ThreadsUsed,
			ChunkReadNS:       int64(s.ChunkRead),
			ChunkWaitNS:       int64(s.ChunkWait),
			PlaceWallNS:       int64(s.PlaceWall),
			PoolBusyNS:        int64(s.PoolBusy),
			PoolParticipants:  s.PoolParticipants,
			PoolUtilization:   s.PoolUtilization(),
			CLVHits:           s.CLVStats.Hits,
			CLVRecomputes:     s.CLVStats.Recomputes,
			CLVEvictions:      s.CLVStats.Evictions,
			RecomputeLeafWork: s.CLVStats.RecomputeLeafWork,
			SpillWrites:       s.CLVStats.SpillWrites,
			SpillReloads:      s.CLVStats.SpillReloads,
			SpillErrors:       s.CLVStats.SpillErrors,
			SpillLeafWork:     s.CLVStats.ReloadLeafWorkSaved,

			Phase2Evals:           s.Phase2Evals,
			Phase2CLVUpdates:      s.Phase2CLVUpdates,
			Phase2PatternsUpdated: s.Phase2PatternsUpdated,
			Phase2PatternsFull:    s.Phase2PatternsFull,

			ScoringMode:          string(e.cfg.Scoring),
			CandidatesIntegrated: s.CandidatesIntegrated,
			EDPLMean:             s.EDPLMean(),
			EDPLCount:            s.EDPLCount,
			EDPLMax:              s.EDPLMax,
		},
		Plan: PlanSection{Plan: e.plan, MaxMemBytes: e.cfg.MaxMem},
		Memory: MemoryReport{
			PeakBytes:     e.acct.Peak(),
			CurrentBytes:  e.acct.Current(),
			PlannedBytes:  e.plan.TotalBytes,
			Breakdown:     e.acct.Breakdown(),
			PeakBreakdown: e.acct.PeakBreakdown(),
		},
		Telemetry: e.telemetryReport(s),
	}
}

// TelemetryReport is the telemetry section of every --stats-json report. The
// sink's live groups declare their own keys (json tags in package telemetry)
// and are held by pointer, so their atomics are loaded when the report is
// marshalled — safe while the run is still updating them, the values are then
// advisory. The keys whose one owner is the slot manager (amc, spill) or the
// engine itself (lookup build, dedup counts, resolved tile and scoring
// configuration, phase-2 unit costs) are declared here and filled at report
// time. SinkSections is the only constructor: the zero value has nil group
// pointers, so pool and server would render null and the mixed sections would
// lose the group's keys.
type TelemetryReport struct {
	AMC      AMCReport         `json:"amc"`
	Pool     *telemetry.Pool   `json:"pool"`
	Pipeline PipelineReport    `json:"pipeline"`
	Server   *telemetry.Server `json:"server"`
	Dedup    DedupReport       `json:"dedup"`
	Kernel   KernelReport      `json:"kernel"`
	Spill    SpillReport       `json:"spill"`
	Scoring  ScoringReport     `json:"scoring"`
}

// AMCReport is the slot manager section (see CLVReports).
type AMCReport struct {
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Evictions         uint64 `json:"evictions"`
	RecomputeLeafWork uint64 `json:"recompute_leaf_work"`
	PinHighWater      int64  `json:"pin_high_water"`
}

// SpillReport is the tiered CLV-eviction section: records spilled to the disk
// tier, materializations satisfied by reload instead of recomputation (with
// the leaf work those reloads saved), degraded-around I/O errors, and the
// measured byte/time volumes the hybrid policy's bandwidth estimate is made
// of. All-zero when spill is disabled.
type SpillReport struct {
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

// PipelineReport is the streaming pipeline section.
type PipelineReport struct {
	*telemetry.Pipeline
	LookupBuildNS int64 `json:"lookup_build_ns"`
}

// DedupReport is the redundancy-elimination section: the engine's in-flight
// query dedup plus the content-addressed result cache's live group.
type DedupReport struct {
	QueriesSeen      uint64 `json:"queries_seen"`
	QueriesDistinct  uint64 `json:"queries_distinct"`
	DuplicatesFolded uint64 `json:"duplicates_folded"`
	*telemetry.Dedup
}

// KernelReport is the tiled placement-kernel section: the resolved tile
// dimensions and phase 1's tile/call/resident-bytes activity.
type KernelReport struct {
	TileQueries  int64 `json:"tile_queries"`
	TileBranches int64 `json:"tile_branches"`
	*telemetry.Kernel
}

// ScoringReport is the uncertainty-aware scoring section: the configured mode
// and quadrature orders (levels: 1 = on), the posterior integration and EDPL
// activity, and the phase-2 unit costs (see RunStats).
type ScoringReport struct {
	BayesMode     int64 `json:"bayes_mode"`
	PendantNodes  int64 `json:"pendant_nodes"`
	ProximalNodes int64 `json:"proximal_nodes"`
	EDPLEnabled   int64 `json:"edpl_enabled"`
	*telemetry.Scoring
	Phase2Evals           uint64 `json:"phase2_evals"`
	Phase2CLVUpdates      uint64 `json:"phase2_clv_updates"`
	Phase2PatternsUpdated uint64 `json:"phase2_patterns_updated"`
	Phase2PatternsFull    uint64 `json:"phase2_patterns_full"`
}

// SinkSections starts a telemetry section from the keys a sink's live groups
// own; the caller fills the rest. A nil sink renders as an empty one, so every
// key is present with or without telemetry.
func SinkSections(tel *telemetry.Sink) TelemetryReport {
	if tel == nil {
		tel = telemetry.NewSink()
	}
	return TelemetryReport{
		Pool:     &tel.Pool,
		Pipeline: PipelineReport{Pipeline: &tel.Pipeline},
		Server:   &tel.Server,
		Dedup:    DedupReport{Dedup: &tel.Dedup},
		Kernel:   KernelReport{Kernel: &tel.Kernel},
		Scoring:  ScoringReport{Scoring: &tel.Scoring},
	}
}

// telemetryReport completes the sink's sections with the keys the slot manager
// and the engine own, from s and the engine's resolved configuration.
func (e *Engine) telemetryReport(s RunStats) TelemetryReport {
	level := func(on bool) int64 {
		if on {
			return 1
		}
		return 0
	}
	t := SinkSections(e.tel)
	t.AMC, t.Spill = CLVReports(s.CLVStats)
	t.Pipeline.LookupBuildNS = int64(s.LookupBuild)
	t.Dedup.QueriesSeen = uint64(s.QueriesDistinct + s.QueriesDeduped)
	t.Dedup.QueriesDistinct = uint64(s.QueriesDistinct)
	t.Dedup.DuplicatesFolded = uint64(s.QueriesDeduped)
	t.Kernel.TileQueries = int64(e.tileQ)
	t.Kernel.TileBranches = int64(e.tileB)
	t.Scoring.BayesMode = level(e.cfg.bayes())
	t.Scoring.PendantNodes = int64(e.cfg.BayesPendantNodes)
	t.Scoring.ProximalNodes = int64(e.cfg.BayesProximalNodes)
	t.Scoring.EDPLEnabled = level(e.cfg.EDPL)
	t.Scoring.Phase2Evals = uint64(s.Phase2Evals)
	t.Scoring.Phase2CLVUpdates = uint64(s.Phase2CLVUpdates)
	t.Scoring.Phase2PatternsUpdated = uint64(s.Phase2PatternsUpdated)
	t.Scoring.Phase2PatternsFull = uint64(s.Phase2PatternsFull)
	return t
}

// CLVReports renders a slot manager's Stats as the amc and spill sections. It
// is the one mapping between the two (it renames: recomputes are the section's
// misses), shared with the pplacer baseline's report; core stays free of JSON.
func CLVReports(c core.Stats) (AMCReport, SpillReport) {
	return AMCReport{
			Hits:              c.Hits,
			Misses:            c.Recomputes,
			Evictions:         c.Evictions,
			RecomputeLeafWork: c.RecomputeLeafWork,
			PinHighWater:      int64(c.PinHighWater),
		}, SpillReport{
			Writes:              c.SpillWrites,
			Reloads:             c.SpillReloads,
			Errors:              c.SpillErrors,
			BytesWritten:        c.SpillBytesWritten,
			BytesReloaded:       c.SpillBytesReloaded,
			ReloadLeafWorkSaved: c.ReloadLeafWorkSaved,
			WriteNS:             int64(c.SpillWriteTime),
			ReloadNS:            int64(c.SpillReloadTime),
			SpilledEntries:      int64(c.SpilledEntries),
		}
}
