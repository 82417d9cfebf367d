package experiments

import (
	"sync"

	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/telemetry"
)

// The recorder captures every measured run as a structured record so that
// cmd/pewo --stats-json can emit the whole experiment sweep as one JSON
// document. It is a package-level, mutex-guarded opt-in: the experiment
// functions call RunEPA/RunPplacer directly (no engine handle escapes to the
// CLI), so threading a collector through every call site would touch each
// experiment for what is purely an output concern. Disabled (the default) it
// costs one mutex-free boolean load per run.
var recorder struct {
	mu      sync.Mutex
	enabled bool
	epa     []EPARunRecord
	pplacer []PplacerRunRecord
}

// EPARunRecord is one RunEPA measurement in the --stats-json document. The
// Report comes from the final repetition's engine (telemetry is attached
// only when recording is on); the run's peak is its memory.peak_bytes.
type EPARunRecord struct {
	Dataset   string           `json:"dataset"`
	Label     string           `json:"label"`
	Reps      int              `json:"reps"`
	WallNS    int64            `json:"wall_ns"`
	FastestNS int64            `json:"fastest_ns"`
	Report    placement.Report `json:"report"`
}

// PplacerRunRecord is one RunPplacer measurement in the --stats-json
// document.
type PplacerRunRecord struct {
	Dataset   string         `json:"dataset"`
	Label     string         `json:"label"`
	Reps      int            `json:"reps"`
	WallNS    int64          `json:"wall_ns"`
	FastestNS int64          `json:"fastest_ns"`
	Report    pplacer.Report `json:"report"`
}

// RecorderDocument is the pewo --stats-json layout.
type RecorderDocument struct {
	SchemaVersion int                `json:"schema_version"`
	EPARuns       []EPARunRecord     `json:"epa_runs"`
	PplacerRuns   []PplacerRunRecord `json:"pplacer_runs"`
}

// EnableRecorder starts capturing run records (clearing any previous ones).
func EnableRecorder() {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	recorder.enabled = true
	recorder.epa = nil
	recorder.pplacer = nil
}

// DisableRecorder stops capturing and clears the records.
func DisableRecorder() {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	recorder.enabled = false
	recorder.epa = nil
	recorder.pplacer = nil
}

// RecorderDoc returns the captured records. Slices are always non-nil so the
// document's key schema does not depend on which tools ran.
func RecorderDoc() RecorderDocument {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	doc := RecorderDocument{
		SchemaVersion: telemetry.SchemaVersion,
		EPARuns:       append([]EPARunRecord{}, recorder.epa...),
		PplacerRuns:   append([]PplacerRunRecord{}, recorder.pplacer...),
	}
	return doc
}

func recorderEnabled() bool {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	return recorder.enabled
}

func recordEPA(m *Measurement, reps int, rep placement.Report) {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	if !recorder.enabled {
		return
	}
	recorder.epa = append(recorder.epa, EPARunRecord{
		Dataset:   m.Dataset,
		Label:     m.Label,
		Reps:      reps,
		WallNS:    int64(m.Wall),
		FastestNS: int64(m.Fastest),
		Report:    rep,
	})
}

func recordPplacer(m *Measurement, reps int, rep pplacer.Report) {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	if !recorder.enabled {
		return
	}
	recorder.pplacer = append(recorder.pplacer, PplacerRunRecord{
		Dataset:   m.Dataset,
		Label:     m.Label,
		Reps:      reps,
		WallNS:    int64(m.Wall),
		FastestNS: int64(m.Fastest),
		Report:    rep,
	})
}
