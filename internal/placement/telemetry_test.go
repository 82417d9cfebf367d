package placement

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// placeWithSink runs a full streaming placement with cfg's telemetry sink
// (and optional trace) attached and returns the engine's report, closing the
// engine (which audits the slot manager's state). Each tune func adjusts the
// engine before it places.
func placeWithSink(t *testing.T, fx *fixture, cfg Config, tune ...func(*Engine)) (Report, *Result) {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(eng)
	}
	res := &Result{}
	if _, err := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		res.Queries = append(res.Queries, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, res
}

// TestTelemetryCountsConsistent runs the chunk loop under AMC and checks the
// report's sections: the keys the slot manager and the engine own are filled
// with or without a sink, and the sink's pipeline and pool groups agree with
// RunStats when one is attached.
func TestTelemetryCountsConsistent(t *testing.T) {
	fx := newFixture(t, 71, 16, 60, 25)
	for _, sink := range []*telemetry.Sink{telemetry.NewSink(), nil} {
		cfg := testConfig()
		cfg.ChunkSize = 7 // several chunks
		cfg.Threads = 3
		cfg.ForceAMC = true
		cfg.Telemetry = sink
		rep, res := placeWithSink(t, fx, cfg)

		if len(res.Queries) != len(fx.queries) {
			t.Fatalf("placed %d queries, want %d", len(res.Queries), len(fx.queries))
		}
		rs, tel := rep.RunStats, rep.Telemetry
		if a := tel.AMC; a.Hits+a.Misses == 0 || a.PinHighWater < 1 {
			t.Fatalf("sink %v: AMC saw no materializations under ForceAMC: %+v", sink != nil, a)
		}
		if rs.LookupBuild <= 0 || rs.Phase2Evals == 0 {
			t.Fatalf("sink %v: run stats not populated: %+v", sink != nil, rs)
		}
		if k := tel.Kernel; k.TileQueries <= 0 || k.TileBranches <= 0 {
			t.Fatalf("sink %v: tile levels missing: %d x %d", sink != nil, k.TileQueries, k.TileBranches)
		}
		if rep.Memory.PeakBytes <= 0 || rep.Memory.PeakBreakdown["clv-slots"] <= 0 {
			t.Fatalf("memory section not populated: %+v", rep.Memory)
		}
		if sink == nil {
			continue
		}
		p := tel.Pipeline
		wantChunks := uint64(rs.ChunksProcessed)
		if p.ChunksRead.Load() != wantChunks || p.ChunksEmitted.Load() != wantChunks {
			t.Fatalf("chunk counters read=%d emitted=%d, want %d each",
				p.ChunksRead.Load(), p.ChunksEmitted.Load(), wantChunks)
		}
		if p.QueriesRead.Load() != uint64(len(fx.queries)) {
			t.Fatalf("queries read = %d, want %d", p.QueriesRead.Load(), len(fx.queries))
		}
		if p.PlaceLatency.Count.Load() != wantChunks {
			t.Fatalf("latency observations = %d, want %d", p.PlaceLatency.Count.Load(), wantChunks)
		}
		var chunks uint64
		for i := range tel.Pool.Workers {
			chunks += tel.Pool.Workers[i].Chunks.Load()
		}
		if chunks == 0 || tel.Pool.JobsSubmitted.Load() == 0 {
			t.Fatalf("pool telemetry empty: chunks=%d jobs=%d", chunks, tel.Pool.JobsSubmitted.Load())
		}
	}
}

// TestRunStatsDeclaresEveryKey applies TestGroupsDeclareEveryKey's rule
// (internal/telemetry) to RunStats, which is the run_stats section: every
// exported field carries a json tag without omitempty, so a new field has to
// pick its key, and "-" marks only the fields another section renders.
func TestRunStatsDeclaresEveryKey(t *testing.T) {
	renderedElsewhere := map[string]bool{"CLVStats": true, "PeakBytes": true, "PlannedBytes": true,
		"LookupEnabled": true, "AMC": true, "Slots": true, "ChunkWait": true}
	ty := reflect.TypeOf(RunStats{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" || strings.Contains(opts, "omitempty") {
			t.Errorf("RunStats.%s: json tag %q; want a key, without omitempty", f.Name, tag)
		} else if (name == "-") != renderedElsewhere[f.Name] {
			t.Errorf("RunStats.%s: json tag %q; \"-\" is for exactly the fields another section renders", f.Name, tag)
		}
	}
}

// TestTelemetryDoesNotChangeOutput places the same queries with and without
// a sink+trace and requires byte-identical jplace output: observability
// must never perturb the run being observed.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	fx := newFixture(t, 72, 12, 50, 15)
	cfg := testConfig()
	cfg.ChunkSize = 6
	base, eng := placeWith(t, fx, cfg)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Telemetry = telemetry.NewSink()
	var buf bytes.Buffer
	cfg.Trace = telemetry.NewTrace(&buf)
	rep, instrumented := placeWithSink(t, fx, cfg)
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameJplace(t, fx, cfg, base.Queries, instrumented.Queries) {
		t.Fatal("telemetry changed placement output")
	}
	// The trace must hold one read/place/emit triple per chunk (plus the
	// lookup-build event), all parseable, and the chunk_place details must
	// sum to the run's phase-2 premask runs and patterns and to its
	// converted lookup-table entries.
	perType := map[string]int{}
	var runs, patterns, terms int64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		perType[ev.Ev]++
		if ev.Ev == "chunk_place" {
			var r, p, lt int64
			if _, err := fmt.Sscanf(ev.Detail, "phase2_runs=%d phase2_patterns_updated=%d lookup_terms=%d", &r, &p, &lt); err != nil {
				t.Fatalf("chunk_place detail %q: %v", ev.Detail, err)
			}
			runs, patterns, terms = runs+r, patterns+p, terms+lt
		}
	}
	want := rep.RunStats.ChunksProcessed
	if perType["chunk_read"] != want || perType["chunk_place"] != want || perType["chunk_emit"] != want {
		t.Fatalf("trace events %v, want %d of each chunk type", perType, want)
	}
	if rs := rep.RunStats; runs == 0 || runs != rs.Phase2Runs || patterns != rs.Phase2PatternsUpdated {
		t.Fatalf("chunk_place details sum to %d runs over %d patterns, run stats say %d over %d",
			runs, patterns, rs.Phase2Runs, rs.Phase2PatternsUpdated)
	}
	if rs := rep.RunStats; terms == 0 || terms != rs.LookupTerms {
		t.Fatalf("chunk_place details sum to %d lookup terms, run stats say %d", terms, rs.LookupTerms)
	}
	if perType["lookup_build"] != 1 {
		t.Fatalf("trace has %d lookup_build events, want 1", perType["lookup_build"])
	}
}

// TestPrecomputeTraceEvent: reference mode's up-front fill emits exactly one
// "precompute" event, naming the CLV, worker and level counts, and an AMC
// run, which fills nothing, emits none while it is built or places.
func TestPrecomputeTraceEvent(t *testing.T) {
	fx := newFixture(t, 73, 24, 60, 6)
	for _, amc := range []bool{false, true} {
		cfg := testConfig()
		cfg.Threads = 2
		cfg.ForceAMC = amc
		var buf bytes.Buffer
		cfg.Trace = telemetry.NewTrace(&buf)
		_, eng := placeWith(t, fx, cfg)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		var got []telemetry.Event
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev telemetry.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			if ev.Ev == "precompute" {
				got = append(got, ev)
			}
		}
		if amc {
			if len(got) != 0 {
				t.Fatalf("AMC run traced %d precompute events: %+v", len(got), got)
			}
			continue
		}
		if len(got) != 1 {
			t.Fatalf("reference run traced %d precompute events, want 1", len(got))
		}
		var clvs, workers, levels int
		if _, err := fmt.Sscanf(got[0].Detail, "clvs=%d workers=%d levels=%d", &clvs, &workers, &levels); err != nil {
			t.Fatalf("precompute detail %q: %v", got[0].Detail, err)
		}
		if clvs != fx.tr.NumInnerCLVs() || workers != 2 || levels < 2 || levels >= clvs || got[0].DurNS <= 0 {
			t.Fatalf("precompute event %+v", got[0])
		}
	}
}

// reportShape marshals rep and renders its key schema: every object key in
// sorted order, leaves as "v". With elems an array contributes its first
// element's shape (the reports' arrays are homogeneous); without, every array
// is "[]", so reports whose arrays differ only in length compare equal.
func reportShape(t *testing.T, rep any, elems bool) string {
	t.Helper()
	data, err := json.Marshal(rep)
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
			sort.Strings(keys)
			return "{" + strings.Join(keys, ",") + "}"
		case []any:
			if len(x) == 0 || !elems {
				return "[]"
			}
			return "[" + walk(x[0]) + "]"
		default:
			return "v"
		}
	}
	return walk(v)
}

// TestReportSchemaStableAcrossThreads: the JSON key schema of the full report
// must be identical for thread counts 1 and 8 (worker arrays collapse to their
// first element). Beside cmd/placed/testdata/report_schema.golden, which pins
// the key set of one build, it is the gate that no key depends on a value.
func TestReportSchemaStableAcrossThreads(t *testing.T) {
	fx := newFixture(t, 73, 12, 50, 12)
	shape := func(threads int) string {
		cfg := testConfig()
		cfg.Threads = threads
		cfg.ForceAMC = true
		cfg.Telemetry = telemetry.NewSink()
		rep, _ := placeWithSink(t, fx, cfg)
		return reportShape(t, rep, true)
	}
	ref := shape(1)
	if got := shape(8); got != ref {
		t.Fatalf("report schema varies with thread count:\n 1: %s\n 8: %s", ref, got)
	}
}

// TestReportKeysIndependentOfSink: a report has the same key paths with no
// sink, with a sink nothing has touched yet, and with a used one — the live
// groups render every key at zero, a nil sink renders as an empty one (no pool
// participants: "workers" is [], never null), and a histogram always lists
// all of its buckets.
func TestReportKeysIndependentOfSink(t *testing.T) {
	fx := newFixture(t, 74, 12, 50, 12)
	cfg := testConfig()
	cfg.ForceAMC = true
	noSink, _ := placeWithSink(t, fx, cfg)
	data, err := json.Marshal(noSink)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"workers":[]`)) {
		t.Errorf("nil-sink report does not render pool.workers as []: %s", data)
	}
	var doc struct {
		Telemetry struct {
			Pipeline struct {
				PlaceLatency struct {
					Buckets []uint64 `json:"buckets"`
				} `json:"place_latency"`
			} `json:"pipeline"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Telemetry.Pipeline.PlaceLatency.Buckets); n != telemetry.HistBuckets {
		t.Errorf("nil-sink report lists %d latency buckets, want %d", n, telemetry.HistBuckets)
	}

	cfg.Telemetry = telemetry.NewSink()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want := reportShape(t, noSink, false)
	if got := reportShape(t, eng.Report(), false); got != want {
		t.Errorf("fresh-sink report keys differ from the nil-sink report's:\n nil:   %s\n fresh: %s", want, got)
	}
	if _, err := eng.PlaceBatch(context.Background(), fx.queries); err != nil {
		t.Fatal(err)
	}
	if got := reportShape(t, eng.Report(), false); got != want {
		t.Errorf("used-sink report keys differ from the nil-sink report's:\n nil:  %s\n used: %s", want, got)
	}
}

// TestReportMarshalDuringPlacement marshals a report while pool workers are
// updating the groups it renders. Report itself waits for the engine's run
// lock, but the document it returns holds the groups by pointer and is
// marshalled outside that lock, so every atomic must be loaded in place: under
// -race this is the guard that no value is read or copied non-atomically.
// Every document cut mid-run must still be complete JSON.
func TestReportMarshalDuringPlacement(t *testing.T) {
	fx := newFixture(t, 75, 16, 60, 30)
	cfg := testConfig()
	cfg.Threads = 4
	cfg.ChunkSize = 5
	cfg.ForceAMC = true
	cfg.Telemetry = telemetry.NewSink()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep := eng.Report()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			_, err = eng.PlaceBatch(context.Background(), fx.queries)
		}
		done <- err
	}()
	var tiles uint64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Telemetry struct {
				Kernel struct {
					TilesExecuted *uint64 `json:"tiles_executed"`
				} `json:"kernel"`
			} `json:"telemetry"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || doc.Telemetry.Kernel.TilesExecuted == nil {
			t.Fatalf("mid-run report is not a complete document (%v): %s", err, data)
		}
		if n := *doc.Telemetry.Kernel.TilesExecuted; n < tiles {
			t.Fatalf("tiles_executed went backwards: %d after %d", n, tiles)
		} else {
			tiles = n
		}
	}
	if tiles == 0 || tiles != cfg.Telemetry.Kernel.TilesExecuted.Load() {
		t.Fatalf("final document reports %d tiles, the live group %d", tiles, cfg.Telemetry.Kernel.TilesExecuted.Load())
	}
}
