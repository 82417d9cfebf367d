package placement

import (
	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/telemetry"
)

// Report is the structured --stats-json document: the run statistics, the
// budget plan, the memory accounting (current and per-category peak), and
// the telemetry section. Each number appears under one key, and every key is
// always present — TestReportSchemaStableAcrossThreads and
// cmd/placed/testdata/report_schema.golden pin the key set, so nothing here
// uses omitempty. Durations are reported as nanosecond integers.
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
	RunStats      RunStats        `json:"run_stats"`
	Plan          PlanSection     `json:"plan"`
	Memory        MemoryReport    `json:"memory"`
	Telemetry     TelemetryReport `json:"telemetry"`
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
		RunStats:      s,
		Plan:          PlanSection{Plan: e.plan, MaxMemBytes: e.cfg.MaxMem},
		Memory: MemoryReport{
			PeakBytes:     e.acct.Peak(),
			CurrentBytes:  e.acct.Current(),
			PlannedBytes:  e.plan.TotalBytes,
			Breakdown:     e.acct.Breakdown(),
			PeakBreakdown: e.acct.PeakBreakdown(),
		},
		Telemetry: e.telemetryReport(s.CLVStats),
	}
}

// TelemetryReport is the telemetry section of the engine's --stats-json
// report. The sink's live groups declare their own keys (json tags in package
// telemetry) and are held by pointer, so their atomics are loaded when the
// report is marshalled — safe while the run is still updating them, the
// values are then advisory. The keys whose one owner is the slot manager (amc,
// spill) or the engine's resolved configuration (tile dimensions, scoring
// mode and quadrature orders) are declared here and filled at report time;
// the engine's own counters are run_stats.
type TelemetryReport struct {
	AMC      AMCReport           `json:"amc"`
	Pool     *telemetry.Pool     `json:"pool"`
	Pipeline *telemetry.Pipeline `json:"pipeline"`
	Server   *telemetry.Server   `json:"server"`
	Dedup    *telemetry.Dedup    `json:"dedup"`
	Kernel   KernelReport        `json:"kernel"`
	Spill    SpillReport         `json:"spill"`
	Scoring  ScoringReport       `json:"scoring"`
}

// AMCReport is the slot manager section (see CLVReports).
type AMCReport struct {
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Evictions         uint64 `json:"evictions"`
	VictimsExamined   uint64 `json:"victims_examined"`
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

// KernelReport is the tiled placement-kernel section: the resolved tile
// dimensions and phase 1's tile/call/resident-bytes activity.
type KernelReport struct {
	TileQueries  int64 `json:"tile_queries"`
	TileBranches int64 `json:"tile_branches"`
	*telemetry.Kernel
}

// ScoringReport is the uncertainty-aware scoring section: the configured mode
// and quadrature orders (levels: 1 = on) beside the posterior integration and
// EDPL activity.
type ScoringReport struct {
	BayesMode     int64 `json:"bayes_mode"`
	PendantNodes  int64 `json:"pendant_nodes"`
	ProximalNodes int64 `json:"proximal_nodes"`
	EDPLEnabled   int64 `json:"edpl_enabled"`
	*telemetry.Scoring
}

// telemetryReport renders the sink's groups beside the keys the slot manager
// (from c) and the engine's resolved configuration own. A nil sink renders as
// an empty one, so every key is present with or without telemetry.
func (e *Engine) telemetryReport(c core.Stats) TelemetryReport {
	level := func(on bool) int64 {
		if on {
			return 1
		}
		return 0
	}
	tel := e.tel
	if tel == nil {
		tel = telemetry.NewSink()
	}
	amc, spill := CLVReports(c)
	return TelemetryReport{
		AMC:      amc,
		Pool:     &tel.Pool,
		Pipeline: &tel.Pipeline,
		Server:   &tel.Server,
		Dedup:    &tel.Dedup,
		Kernel:   KernelReport{TileQueries: int64(e.tileQ), TileBranches: int64(e.tileB), Kernel: &tel.Kernel},
		Spill:    spill,
		Scoring: ScoringReport{
			BayesMode:     level(e.cfg.bayes()),
			PendantNodes:  int64(e.cfg.BayesPendantNodes),
			ProximalNodes: int64(e.cfg.BayesProximalNodes),
			EDPLEnabled:   level(e.cfg.EDPL),
			Scoring:       &tel.Scoring,
		},
	}
}

// CLVReports renders a slot manager's Stats as the amc and spill sections. It
// is the one mapping between the two (it renames: recomputes are the section's
// misses), shared with the pplacer baseline's report; core stays free of JSON.
func CLVReports(c core.Stats) (AMCReport, SpillReport) {
	return AMCReport{
			Hits:              c.Hits,
			Misses:            c.Recomputes,
			Evictions:         c.Evictions,
			VictimsExamined:   c.VictimsExamined,
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
