package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/placement"
	"phylomem/internal/telemetry"
)

func sampleDoc() *Doc {
	return &Doc{
		SchemaVersion: 1,
		Dataset:       "neotrop",
		Configs: []ConfigResult{
			{Name: "reference", NsPerQuery: 1000, PlannedBytes: 500, PeakBytes: 400, BytesGated: false},
			{Name: "amc", NsPerQuery: 2000, PlannedBytes: 300, PeakBytes: 250, BytesGated: true, Evictions: 70, EvictionsGated: true},
		},
	}
}

func TestGate(t *testing.T) {
	base := sampleDoc()

	if err := gate(base, sampleDoc()); err != nil {
		t.Fatalf("identical docs failed the gate: %v", err)
	}

	// Timings are recorded, not gated: the baseline's are another machine's.
	slow := sampleDoc()
	slow.Configs[1].NsPerQuery *= 3
	if err := gate(base, slow); err != nil {
		t.Fatalf("a slower run failed the gate: %v", err)
	}

	// Any planned-bytes growth fails, for every config.
	grown := sampleDoc()
	grown.Configs[0].PlannedBytes = 501
	if err := gate(base, grown); err == nil {
		t.Fatal("planned-bytes growth passed")
	}

	// Peak growth fails only for byte-gated configs.
	peakFree := sampleDoc()
	peakFree.Configs[0].PeakBytes = 450 // reference: not gated
	if err := gate(base, peakFree); err != nil {
		t.Fatalf("ungated peak growth rejected: %v", err)
	}
	peakGated := sampleDoc()
	peakGated.Configs[1].PeakBytes = 251 // amc: gated
	if err := gate(base, peakGated); err == nil {
		t.Fatal("gated peak growth passed")
	}

	// The eviction count is exact for gated configs: fewer passes, one more
	// fails; an ungated config's count is free to move.
	fewer := sampleDoc()
	fewer.Configs[1].Evictions = 69
	if err := gate(base, fewer); err != nil {
		t.Fatalf("eviction drop rejected: %v", err)
	}
	more := sampleDoc()
	more.Configs[1].Evictions = 71
	if err := gate(base, more); err == nil {
		t.Fatal("gated eviction growth passed")
	}
	moreFree := sampleDoc()
	moreFree.Configs[0].Evictions = 5
	if err := gate(base, moreFree); err != nil {
		t.Fatalf("ungated eviction growth rejected: %v", err)
	}

	// A baseline config missing from the fresh run fails (silently dropping
	// a gated config must not weaken the gate).
	missing := sampleDoc()
	missing.Configs = missing.Configs[:1]
	if err := gate(base, missing); err == nil {
		t.Fatal("dropped config passed")
	}
}

// TestGateDup50 covers the redundancy-elimination floor: once the baseline
// attests the speedup, a fresh run below the floor (or without the dup50
// configs) fails; a dormant baseline leaves the floor unenforced.
func TestGateDup50(t *testing.T) {
	attested := sampleDoc()
	attested.Dup50Speedup = 2.1

	good := sampleDoc()
	good.Dup50Speedup = 1.9
	if err := gate(attested, good); err != nil {
		t.Fatalf("speedup above the floor rejected: %v", err)
	}

	slow := sampleDoc()
	slow.Dup50Speedup = 1.2
	if err := gate(attested, slow); err == nil {
		t.Fatal("speedup below the floor passed")
	}

	dropped := sampleDoc() // Dup50Speedup zero: dup50 configs absent
	if err := gate(attested, dropped); err == nil {
		t.Fatal("fresh run without dup50 configs passed an attesting baseline")
	}

	dormant := sampleDoc()
	dormant.Dup50Speedup = 1.2 // baseline itself below the floor
	if err := gate(dormant, slow); err != nil {
		t.Fatalf("dormant baseline enforced the floor: %v", err)
	}
}

// TestDup50Speedup checks the ratio arithmetic picks the faster of the two
// redundancy-eliminating configs and degrades to 0 when any leg is absent.
func TestDup50Speedup(t *testing.T) {
	doc := &Doc{Configs: []ConfigResult{
		{Name: "dup50-nodedup", NsPerQuery: 2000},
		{Name: "dup50-dedup", NsPerQuery: 1100},
		{Name: "dup50-cached", NsPerQuery: 1000},
	}}
	if got := dup50Speedup(doc); got != 2.0 {
		t.Fatalf("speedup = %v, want 2.0 (against the faster leg)", got)
	}
	doc.Configs = doc.Configs[:2]
	if got := dup50Speedup(doc); got != 0 {
		t.Fatalf("speedup with a missing leg = %v, want 0", got)
	}
}

// TestDuplicateWorkload: the doubled workload shares code slices with the
// originals, is deterministically shuffled, and renames the copies.
func TestDuplicateWorkload(t *testing.T) {
	qs := []placement.Query{
		{Name: "a", Codes: []uint32{1}},
		{Name: "b", Codes: []uint32{2}},
		{Name: "c", Codes: []uint32{3}},
	}
	dup := duplicateWorkload(qs, 9)
	if len(dup) != 6 {
		t.Fatalf("got %d queries, want 6", len(dup))
	}
	again := duplicateWorkload(qs, 9)
	for i := range dup {
		if dup[i].Name != again[i].Name {
			t.Fatal("duplicateWorkload is not deterministic for a fixed seed")
		}
	}
	names := map[string]int{}
	for _, q := range dup {
		names[q.Name]++
	}
	for _, q := range qs {
		if names[q.Name] != 1 || names[q.Name+"+dup"] != 1 {
			t.Fatalf("name multiset wrong: %v", names)
		}
	}
}

// TestMatrixEndToEnd runs the real matrix at the smallest workload scale and
// gates the result against itself through the CLI entry point.
func TestMatrixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark matrix")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := run([]string{"--scale", "512", "--reps", "1", "--out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"--compare-only", out, "--baseline", out}); err != nil {
		t.Fatalf("self-comparison failed the gate: %v", err)
	}

	// The emitted document round-trips and covers the full matrix.
	doc, err := readDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Configs) != len(matrix()) {
		t.Fatalf("got %d configs, want %d", len(doc.Configs), len(matrix()))
	}
	for _, c := range doc.Configs {
		if c.NsPerQuery <= 0 || c.PlannedBytes <= 0 || c.PeakBytes <= 0 {
			t.Errorf("%s: unpopulated result: %+v", c.Name, c)
		}
		if strings.HasPrefix(c.Name, "amc") {
			if !c.AMC || c.SlotMissRate <= 0 {
				t.Errorf("%s: expected AMC with a positive miss rate, got amc=%v miss=%v", c.Name, c.AMC, c.SlotMissRate)
			}
			if !c.BytesGated {
				t.Errorf("%s: AMC configs must be byte-gated", c.Name)
			}
			if c.EvictionsGated != (c.SpillPolicy != "hybrid") {
				t.Errorf("%s: evictions gated = %v with spill policy %q", c.Name, c.EvictionsGated, c.SpillPolicy)
			}
		}
		switch c.Name {
		case "dup50-nodedup":
			if c.Dedup || c.DistinctQueries != 0 || c.DuplicatesFolded != 0 {
				t.Errorf("%s: control leaked dedup metrics: %+v", c.Name, c)
			}
		case "dup50-dedup":
			// At least half the workload folds (the injected duplicates; the
			// synthetic dataset may contribute natural ones on top), and
			// distinct + folded covers every query.
			if !c.Dedup || c.DuplicatesFolded < c.Queries/2 || c.DistinctQueries+c.DuplicatesFolded != c.Queries {
				t.Errorf("%s: expected ≥%d of %d folded with a full partition, got %+v", c.Name, c.Queries/2, c.Queries, c)
			}
		case "dup50-cached":
			if c.CacheMisses == 0 || c.CacheHits == 0 || c.CacheBytes == 0 {
				t.Errorf("%s: cache metrics unpopulated: %+v", c.Name, c)
			}
			if c.CacheHits+c.CacheMisses != uint64(c.Queries) {
				t.Errorf("%s: hits %d + misses %d != queries %d", c.Name, c.CacheHits, c.CacheMisses, c.Queries)
			}
		}
	}
	if doc.Dup50Speedup <= 0 {
		t.Errorf("dup50 speedup unpopulated: %v", doc.Dup50Speedup)
	}

	// A doctored baseline with a lower byte budget trips the gate.
	doc.Configs[len(doc.Configs)-1].PeakBytes--
	tight := filepath.Join(dir, "tight.json")
	if err := telemetry.WriteJSONFile(tight, doc); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"--compare-only", out, "--baseline", tight}); err == nil {
		t.Fatal("peak-bytes increase over the baseline passed the gate")
	}
}

func TestReadDocErrors(t *testing.T) {
	if _, err := readDoc(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDoc(bad); err == nil {
		t.Error("config-less document accepted")
	}
}

// TestRunRejectsPositionalArguments: a stray token must be a usage error, not
// a silent end of flag parsing — `benchrun oops --compare-only x --baseline y`
// would otherwise start a full benchmark run.
func TestRunRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"oops", "--compare-only", "BENCH_place.json", "--baseline", "BENCH_baseline.json"},
		{"--compare-only", "BENCH_place.json", "oops", "--baseline", "BENCH_baseline.json"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), `"oops"`) {
			t.Errorf("%v: err = %v, want a usage error naming the stray token", args, err)
		}
	}
}
