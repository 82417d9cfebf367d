package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

func TestRunOnGeneratedResult(t *testing.T) {
	dir := t.TempDir()
	tr, err := tree.ParseNewick("((A:1,B:1):1,C:1,D:1);")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tree.nwk"), []byte(tr.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := &jplace.Document{
		Tree: jplace.TreeString(tr),
		Queries: []jplace.Placements{
			{Name: "q1", Placements: []jplace.Placement{
				{EdgeNum: 0, LogLikelihood: -10, LikeWeightRatio: 0.8, DistalLength: 0.5, PendantLength: 0.1},
				{EdgeNum: 1, LogLikelihood: -11, LikeWeightRatio: 0.2, DistalLength: 0.2, PendantLength: 0.3},
			}},
		},
	}
	jp := filepath.Join(dir, "r.jplace")
	f, err := os.Create(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := jplace.Write(f, doc); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := run([]string{"--jplace", jp, "--tree", filepath.Join(dir, "tree.nwk"), "--per-query"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing args accepted")
	}
	if err := run([]string{"--jplace", "nope", "--tree", "nope"}); err == nil {
		t.Error("missing files accepted")
	}
}

// writeDoc writes a jplace document into dir and returns its path.
func writeDoc(t *testing.T, dir, name string, doc *jplace.Document) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jplace.Write(f, doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunMismatchedTree is the regression test for the panic on jplace files
// whose edge numbers do not index the supplied tree: every analysis path
// must fail with a clean, descriptive error instead.
func TestRunMismatchedTree(t *testing.T) {
	dir := t.TempDir()
	// A 3-leaf tree has 3 edges; the document places on edge 7.
	tr, err := tree.ParseNewick("(A:1,B:1,C:1);")
	if err != nil {
		t.Fatal(err)
	}
	treeFile := filepath.Join(dir, "small.nwk")
	if err := os.WriteFile(treeFile, []byte(tr.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jp := writeDoc(t, dir, "big.jplace", &jplace.Document{
		Tree: "(A:1{0},B:1{1},C:1{2});",
		Queries: []jplace.Placements{
			{Name: "stray", Placements: []jplace.Placement{
				{EdgeNum: 7, LogLikelihood: -10, LikeWeightRatio: 1},
			}},
		},
	})
	for _, args := range [][]string{
		{"--jplace", jp, "--tree", treeFile},
		{"--jplace", jp, "--tree", treeFile, "--per-query"},
	} {
		err := run(args)
		if err == nil {
			t.Fatalf("mismatched tree accepted for %v", args)
		}
		if !strings.Contains(err.Error(), "wrong tree") {
			t.Fatalf("error does not explain the mismatch: %v", err)
		}
	}
}

// TestRunPostProbModes: --post-prob must work on a bayes document and fail
// cleanly — naming the missing column — on an ML document.
func TestRunPostProbModes(t *testing.T) {
	dir := t.TempDir()
	tr, err := tree.ParseNewick("(A:1,B:1,C:1);")
	if err != nil {
		t.Fatal(err)
	}
	treeFile := filepath.Join(dir, "t.nwk")
	if err := os.WriteFile(treeFile, []byte(tr.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edpl := 0.02
	queries := []jplace.Placements{
		{Name: "q1", EDPL: &edpl, Placements: []jplace.Placement{
			{EdgeNum: 0, LogLikelihood: -10, LikeWeightRatio: 0.7, PostProb: 0.9, DistalLength: 0.1, PendantLength: 0.1},
			{EdgeNum: 1, LogLikelihood: -11, LikeWeightRatio: 0.3, PostProb: 0.1, DistalLength: 0.2, PendantLength: 0.2},
		}},
	}
	bayes := writeDoc(t, dir, "b.jplace", &jplace.Document{
		Tree: jplace.TreeString(tr), Fields: jplace.FieldsBayes, Queries: queries,
	})
	if err := run([]string{"--jplace", bayes, "--tree", treeFile, "--post-prob", "--per-query"}); err != nil {
		t.Fatalf("bayes document rejected: %v", err)
	}
	ml := writeDoc(t, dir, "m.jplace", &jplace.Document{
		Tree: jplace.TreeString(tr),
		Queries: []jplace.Placements{
			{Name: "q1", Placements: []jplace.Placement{
				{EdgeNum: 0, LogLikelihood: -10, LikeWeightRatio: 1},
			}},
		},
	})
	err = run([]string{"--jplace", ml, "--tree", treeFile, "--post-prob"})
	if err == nil {
		t.Fatal("--post-prob accepted an ML document")
	}
	if !strings.Contains(err.Error(), "post_prob") {
		t.Fatalf("error does not name the missing column: %v", err)
	}
}

// TestSummarizeTrace feeds a synthetic trace through the --trace summarizer
// and checks the per-event aggregation, the pipeline overlap line, and the
// premask run line and the lookup-term line summed over the chunks.
func TestSummarizeTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace(f)
	tr.Emit(telemetry.Event{Ev: "run_start", Detail: "test"})
	tr.Emit(telemetry.Event{Ev: "precompute", DurNS: 9e6, Bytes: 1 << 22, Detail: "clvs=186 workers=2 levels=25"})
	tr.Emit(telemetry.Event{Ev: "lookup_build", DurNS: 4e6, Bytes: 1 << 20})
	for c := 0; c < 3; c++ {
		tr.Emit(telemetry.Event{Ev: "chunk_read", Chunk: c, Queries: 10, DurNS: 1e6})
		tr.Emit(telemetry.Event{Ev: "chunk_place", Chunk: c, Queries: 10, DurNS: 5e6,
			Detail: fmt.Sprintf("phase2_runs=%d phase2_patterns_updated=%d lookup_terms=%d", 2+c, 280+c, 600>>(4*c))})
		tr.Emit(telemetry.Event{Ev: "chunk_emit", Chunk: c, Queries: 10, DurNS: 2e5})
	}
	tr.Emit(telemetry.Event{Ev: "run_end", Queries: 30})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := summarizeTrace(&buf, path, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"13 events", "precompute", "chunk_place", "3", "pipeline: read",
		"phase 2: 843 patterns updated in 9 premask runs (mean run 93.7 patterns)",
		"lookup: 639 table entries converted to log terms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}

	// Malformed trace lines are an error, not a silent skip.
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("{\"ev\":\"x\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := summarizeTrace(&buf, bad, false); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if err := summarizeTrace(&buf, filepath.Join(dir, "missing.trace"), false); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestRunTraceMode drives the --trace flag through run().
func TestRunTraceMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace(f)
	tr.Emit(telemetry.Event{Ev: "chunk_place", Chunk: 0, Queries: 5, DurNS: 1e6})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"--trace", path}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsPositionalArguments: a stray token must be a usage error, not
// a silent end of flag parsing that drops every flag after it (here it used
// to turn a --trace run into a "--jplace and --tree are required" puzzle, or
// drop --events without a word).
func TestRunRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"oops", "--trace", "run.trace"},
		{"--trace", "run.trace", "oops", "--events"},
		{"--jplace", "r.jplace", "--tree", "t.nwk", "oops"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), `"oops"`) {
			t.Errorf("%v: err = %v, want a usage error naming the stray token", args, err)
		}
	}
}
