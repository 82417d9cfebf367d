package placement

import (
	"phylomem/internal/core"
	"phylomem/internal/telemetry"
)

// Report is the structured --stats-json document: a superset of RunStats
// with the budget plan, the memory accounting (current and per-category
// peak), and the full telemetry snapshot. Every key is always present — the
// determinism CI gate diffs the key schema across thread counts, so nothing
// here uses omitempty. Durations are reported as nanosecond integers.
type Report struct {
	SchemaVersion int                `json:"schema_version"`
	RunStats      RunStatsReport     `json:"run_stats"`
	Plan          PlanReport         `json:"plan"`
	Memory        MemoryReport       `json:"memory"`
	Telemetry     telemetry.Snapshot `json:"telemetry"`
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
	Pipelined         bool    `json:"pipelined"`
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

// PlanReport is the memacct.Plan section of a Report.
type PlanReport struct {
	AMC            bool  `json:"amc"`
	Slots          int   `json:"slots"`
	LookupEnabled  bool  `json:"lookup_enabled"`
	ChunkSize      int   `json:"chunk_size"`
	BlockSize      int   `json:"block_size"`
	FixedBytes     int64 `json:"fixed_bytes"`
	ChunkBytes     int64 `json:"chunk_bytes"`
	LookupBytes    int64 `json:"lookup_bytes"`
	SlotsBytes     int64 `json:"slots_bytes"`
	BranchBufBytes int64 `json:"branch_buf_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	MaxMemBytes    int64 `json:"max_mem_bytes"`
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
			Pipelined:         s.Pipelined,
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
		Plan: PlanReport{
			AMC:            e.plan.AMC,
			Slots:          e.plan.Slots,
			LookupEnabled:  e.plan.LookupEnabled,
			ChunkSize:      e.plan.ChunkSize,
			BlockSize:      e.plan.BlockSize,
			FixedBytes:     e.plan.FixedBytes,
			ChunkBytes:     e.plan.ChunkBytes,
			LookupBytes:    e.plan.LookupBytes,
			SlotsBytes:     e.plan.SlotsBytes,
			BranchBufBytes: e.plan.BranchBufBytes,
			TotalBytes:     e.plan.TotalBytes,
			MaxMemBytes:    e.cfg.MaxMem,
		},
		Memory: MemoryReport{
			PeakBytes:     e.acct.Peak(),
			CurrentBytes:  e.acct.Current(),
			PlannedBytes:  e.plan.TotalBytes,
			Breakdown:     e.acct.Breakdown(),
			PeakBreakdown: e.acct.PeakBreakdown(),
		},
		Telemetry: e.telemetrySnapshot(s),
	}
}

// telemetrySnapshot renders the telemetry section: the sink's live groups,
// plus the keys whose one owner is the slot manager (amc, spill) or the
// engine itself (lookup build, dedup counts, phase-2 unit costs, resolved
// tile and scoring configuration), filled from s and the engine's config.
func (e *Engine) telemetrySnapshot(s RunStats) telemetry.Snapshot {
	level := func(on bool) int64 {
		if on {
			return 1
		}
		return 0
	}
	t := e.tel.Snapshot()
	t.AMC, t.Spill = CLVSnapshots(s.CLVStats)
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

// CLVSnapshots renders a slot manager's Stats as the amc and spill sections of
// a telemetry snapshot. It is the one mapping between the two, shared with the
// pplacer baseline's report.
func CLVSnapshots(c core.Stats) (telemetry.AMCSnapshot, telemetry.SpillSnapshot) {
	return telemetry.AMCSnapshot{
			Hits:              c.Hits,
			Misses:            c.Recomputes,
			Evictions:         c.Evictions,
			RecomputeLeafWork: c.RecomputeLeafWork,
			PinHighWater:      int64(c.PinHighWater),
		}, telemetry.SpillSnapshot{
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
