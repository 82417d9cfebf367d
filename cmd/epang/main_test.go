package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/workload"
)

// writeDataset materializes a small synthetic dataset on disk.
func writeDataset(t *testing.T) (dir string, ds *workload.Dataset) {
	t.Helper()
	ds, err := workload.Neotrop(64, 9)
	if err != nil {
		t.Fatal(err)
	}
	ds.Queries = ds.Queries[:25]
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tree.nwk"), []byte(ds.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := seq.WriteFasta(&ref, ds.RefMSA.Sequences); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ref.fasta"), ref.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var q bytes.Buffer
	if err := seq.WriteFasta(&q, ds.Queries); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "query.fasta"), q.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Combined alignment for --split.
	var combined bytes.Buffer
	if err := seq.WriteFasta(&combined, append(append([]seq.Sequence{}, ds.RefMSA.Sequences...), ds.Queries...)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "combined.fasta"), combined.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

func readJplace(t *testing.T, path string) *jplace.Document {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := jplace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRunEndToEnd(t *testing.T) {
	dir, ds := writeDataset(t)
	out := filepath.Join(dir, "result.jplace")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", out,
		"--chunk-size", "10",
		"--verbose",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	doc := readJplace(t, out)
	if len(doc.Queries) != len(ds.Queries) {
		t.Fatalf("jplace has %d queries, want %d", len(doc.Queries), len(ds.Queries))
	}
	if !strings.Contains(buf.String(), "placed 25 queries") {
		t.Fatalf("output: %s", buf.String())
	}
}

// TestRunFitPlansFirst: with --fit, an infeasible --maxmem fails before the
// fit runs — the memacct error, and no "fit:" line from --verbose.
func TestRunFitPlansFirst(t *testing.T) {
	dir, _ := writeDataset(t)
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", filepath.Join(dir, "result.jplace"),
		"--maxmem", "100K", "--fit", "--verbose",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "is below the minimum") {
		t.Fatalf("err = %v, want the memacct minimum", err)
	}
	if strings.Contains(buf.String(), "fit:") {
		t.Fatalf("the fit ran before the plan rejected --maxmem:\n%s", buf.String())
	}
}

// TestRunWithMaxmemMatchesUnlimited is the flag-level anchor of the
// byte-identity table (internal/placement, TestByteIdentity), which hands
// engines their Config directly: the whole neotrop query set through run(),
// the reference flags against one row compounding threads, a ceiling near
// the slot floor and the spill tier, once per scoring mode. The
// documents must be equal bytes, and the --stats-json read back proves the
// flags reached the engine.
func TestRunWithMaxmemMatchesUnlimited(t *testing.T) {
	dir, _ := writeDataset(t)
	ds, err := workload.Neotrop(64, 9)
	if err != nil {
		t.Fatal(err)
	}
	var q bytes.Buffer
	if err := seq.WriteFasta(&q, ds.Queries); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "all.fasta"), q.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	place := func(name string, extra ...string) (string, statsDoc) {
		out, stats := filepath.Join(dir, name+".jplace"), filepath.Join(dir, name+".json")
		args := append([]string{
			"--tree", filepath.Join(dir, "tree.nwk"),
			"--ref-msa", filepath.Join(dir, "ref.fasta"),
			"--query", filepath.Join(dir, "all.fasta"),
			"--chunk-size", "200",
			"--out", out,
			"--stats-json", stats,
		}, extra...)
		if err := run(context.Background(), args, new(bytes.Buffer)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(stats)
		if err != nil {
			t.Fatal(err)
		}
		var rep statsDoc
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return stripInvocation(t, out), rep
	}
	for name, scoring := range map[string][]string{"ml": nil, "bayes": {"--scoring", "bayes", "--edpl"}} {
		ref, refRep := place(name+"-ref", append([]string{"--threads", "4"}, scoring...)...)
		got, rep := place(name+"-row", append([]string{"--threads", "8", "--maxmem", "900K", "--clv-spill=hybrid"}, scoring...)...)
		if got != ref {
			t.Errorf("%s: the constrained row changed the jplace document", name)
		}
		if refRep.Plan.AMC || !refRep.Plan.LookupEnabled || refRep.RunStats.QueriesPlaced != len(ds.Queries) {
			t.Errorf("%s: reference ran plan %+v over %d queries", name, refRep.Plan, refRep.RunStats.QueriesPlaced)
		}
		if !rep.Plan.AMC || rep.Plan.LookupEnabled || rep.Plan.MaxMemBytes != 900<<10 || rep.Telemetry.Spill.Writes == 0 {
			t.Errorf("%s: flags did not reach the engine: plan %+v, %d spill writes", name, rep.Plan, rep.Telemetry.Spill.Writes)
		}
	}
}

func TestRunSplitMode(t *testing.T) {
	dir, ds := writeDataset(t)
	out := filepath.Join(dir, "split.jplace")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--split", filepath.Join(dir, "combined.fasta"),
		"--out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	doc := readJplace(t, out)
	if len(doc.Queries) != len(ds.Queries) {
		t.Fatalf("split mode placed %d queries, want %d", len(doc.Queries), len(ds.Queries))
	}
}

func TestRunArgumentErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{}, &buf); err == nil {
		t.Error("missing args accepted")
	}
	if err := run(context.Background(), []string{"--tree", "x.nwk"}, &buf); err == nil {
		t.Error("missing msa/query accepted")
	}
	dir, _ := writeDataset(t)
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
	}
	if err := run(context.Background(), append(base, "--model", "BOGUS"), &buf); err == nil {
		t.Error("bogus model accepted")
	}
	// The replacement rule is not an option: the flag that chose it is gone.
	if err := run(context.Background(), append(base, "--memsave-strategy", "cost"), &buf); err == nil || placement.ExitCode(err) != 1 {
		t.Errorf("--memsave-strategy: err %v, want a usage error (exit 1)", err)
	}
	if err := run(context.Background(), append(base, "--maxmem", "nonsense"), &buf); err == nil {
		t.Error("bogus maxmem accepted")
	}
	// A size past int64 once wrapped to a negative ceiling and planned AMC.
	err := run(context.Background(), append(base, "--maxmem", "1e30"), &buf)
	if err == nil || placement.ExitCode(err) != 1 || !strings.Contains(err.Error(), "1e30") {
		t.Errorf("--maxmem 1e30: err %v, want exit 1 naming the size", err)
	}
	if err := run(context.Background(), append(base, "--type", "XX"), &buf); err == nil {
		t.Error("bogus type accepted")
	}
}

func TestRunRefDBRoundTrip(t *testing.T) {
	dir, ds := writeDataset(t)
	db := filepath.Join(dir, "ref.db")
	outDirect := filepath.Join(dir, "direct.jplace")
	var buf bytes.Buffer
	// Save a DB while placing directly.
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--save-db", db,
		"--out", outDirect,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Place again purely from the DB.
	outDB := filepath.Join(dir, "fromdb.jplace")
	err = run(context.Background(), []string{
		"--db", db,
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", outDB,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := readJplace(t, outDirect), readJplace(t, outDB)
	if len(a.Queries) != len(ds.Queries) || len(b.Queries) != len(ds.Queries) {
		t.Fatalf("query counts %d/%d", len(a.Queries), len(b.Queries))
	}
	// The DB round-trips the same model and alignment; the tree is re-parsed
	// so edge numbering may differ, but every query must still get decisive
	// placements.
	for i := range b.Queries {
		if len(b.Queries[i].Placements) == 0 {
			t.Fatalf("query %s lost placements in db mode", b.Queries[i].Name)
		}
	}
	if err := run(context.Background(), []string{"--db", db}, &buf); err == nil {
		t.Fatal("db mode without --query accepted")
	}
}

// TestRunLenientAndStrict appends malformed reads to each query input, the
// --query file and the --split combined alignment: the default run skips,
// counts and reports them and places the rest, --strict aborts with the typed
// error.
func TestRunLenientAndStrict(t *testing.T) {
	dir, ds := writeDataset(t)
	width := ds.RefMSA.Width()
	write := func(name string, seqs []seq.Sequence, extra string) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := seq.WriteFasta(&buf, seqs); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(extra)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	badChar := ">badchar\n" + strings.Repeat("A", width-1) + "!\n"
	tree := filepath.Join(dir, "tree.nwk")
	cases := []struct {
		name    string
		args    []string
		skipped int
	}{
		{"query", []string{"--tree", tree, "--ref-msa", filepath.Join(dir, "ref.fasta"),
			"--query", write("mixed.fasta", ds.Queries, ">truncated\nACGT\n")}, 1},
		{"split", []string{"--tree", tree, "--split",
			write("mixed-combined.fasta", append(append([]seq.Sequence{}, ds.RefMSA.Sequences...), ds.Queries...),
				">truncated\nACGT\n"+badChar)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, stats := filepath.Join(dir, tc.name+".jplace"), filepath.Join(dir, tc.name+".json")
			base := append(tc.args, "--out", out)
			var buf bytes.Buffer
			if err := run(context.Background(), append(base, "--stats-json", stats), &buf); err != nil {
				t.Fatalf("lenient run failed: %v", err)
			}
			if want := fmt.Sprintf("skipped %d malformed", tc.skipped); !strings.Contains(buf.String(), want) {
				t.Fatalf("skip not reported (want %q): %s", want, buf.String())
			}
			doc := readJplace(t, out)
			if len(doc.Queries) != len(ds.Queries) {
				t.Fatalf("lenient run placed %d queries, want %d", len(doc.Queries), len(ds.Queries))
			}
			data, err := os.ReadFile(stats)
			if err != nil {
				t.Fatal(err)
			}
			var rep statsDoc
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.RunStats.QueriesSkipped != tc.skipped {
				t.Fatalf("queries_skipped = %d, want %d", rep.RunStats.QueriesSkipped, tc.skipped)
			}

			err = run(context.Background(), append(base, "--strict"), &buf)
			if err == nil {
				t.Fatal("--strict accepted a malformed query")
			}
			if !errors.Is(err, placement.ErrQueryMalformed) {
				t.Fatalf("strict error = %v, want ErrQueryMalformed", err)
			}
			if placement.ExitCode(err) != 1 {
				t.Fatalf("exit code for input error = %d, want 1", placement.ExitCode(err))
			}
		})
	}
}

// statsDoc is what these tests read back from a --stats-json file. The
// report's live telemetry groups marshal but do not unmarshal, so a reader
// declares the keys it wants, as any consumer of the file does.
type statsDoc struct {
	SchemaVersion int                    `json:"schema_version"`
	RunStats      placement.RunStats     `json:"run_stats"`
	Plan          placement.PlanSection  `json:"plan"`
	Memory        placement.MemoryReport `json:"memory"`
	Telemetry     struct {
		AMC   placement.AMCReport   `json:"amc"`
		Spill placement.SpillReport `json:"spill"`
	} `json:"telemetry"`
}

// TestRunStatsJSONAndTrace runs with --stats-json and --trace under a tight
// memory limit (so AMC is active) and checks the acceptance property: the
// reported slot counters are consistent — the manager recomputed, evictions
// never exceed misses, and no more slots were pinned at once than planned.
func TestRunStatsJSONAndTrace(t *testing.T) {
	dir, ds := writeDataset(t)
	statsPath := filepath.Join(dir, "stats.json")
	tracePath := filepath.Join(dir, "run.trace")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", filepath.Join(dir, "result.jplace"),
		"--chunk-size", "10",
		"--threads", "2",
		"--maxmem", "1500K",
		"--stats-json", statsPath,
		"--trace", tracePath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep statsDoc
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != telemetry.SchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, telemetry.SchemaVersion)
	}
	if !rep.Plan.AMC {
		t.Fatal("1500K limit did not select AMC mode")
	}
	a := rep.Telemetry.AMC
	if a.Misses == 0 {
		t.Fatal("AMC mode recorded no recomputations")
	}
	if a.Evictions > a.Misses {
		t.Fatalf("evictions %d > misses %d", a.Evictions, a.Misses)
	}
	if a.PinHighWater < 1 || a.PinHighWater > int64(rep.Plan.Slots) {
		t.Fatalf("pin high-water %d outside [1, %d]", a.PinHighWater, rep.Plan.Slots)
	}
	if rep.RunStats.QueriesPlaced != len(ds.Queries) {
		t.Fatalf("placed %d, want %d", rep.RunStats.QueriesPlaced, len(ds.Queries))
	}
	if rep.Memory.PeakBytes <= 0 || len(rep.Memory.PeakBreakdown) == 0 {
		t.Fatalf("memory section empty: %+v", rep.Memory)
	}

	// The trace must bracket the run and carry the per-chunk events.
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(traceData)), "\n")
	var kinds []string
	for _, line := range lines {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Ev)
	}
	if kinds[0] != "run_start" || kinds[len(kinds)-1] != "run_end" {
		t.Fatalf("trace not bracketed: first=%s last=%s", kinds[0], kinds[len(kinds)-1])
	}
	places := 0
	for _, k := range kinds {
		if k == "chunk_place" {
			places++
		}
	}
	if places != rep.RunStats.ChunksProcessed {
		t.Fatalf("trace has %d chunk_place events, stats say %d chunks", places, rep.RunStats.ChunksProcessed)
	}
}

// TestRunRejectsPositionalArguments: a stray token used to end flag parsing
// silently, so every flag after it — --maxmem in the first case — was dropped
// and the run succeeded unconstrained. It must be a usage error (exit 1)
// before anything runs, and it is what makes the removed
// `--clv-spill discard` spelling fail loudly instead of running hybrid.
func TestRunRejectsPositionalArguments(t *testing.T) {
	dir, _ := writeDataset(t)
	out := filepath.Join(dir, "r.jplace")
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", out,
	}
	for _, tc := range []struct {
		name  string
		extra []string
		stray string
	}{
		{"token between flags", []string{"oops", "--maxmem", "1G"}, "oops"},
		{"trailing token", []string{"--threads", "2", "extra"}, "extra"},
		{"policy as a separate word", []string{"--clv-spill", "discard", "--maxmem", "2M"}, "discard"},
	} {
		var buf bytes.Buffer
		err := run(context.Background(), append(base, tc.extra...), &buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.stray)) {
			t.Errorf("%s: err = %v, want a usage error naming %q", tc.name, err, tc.stray)
			continue
		}
		if code := placement.ExitCode(err); code != 1 {
			t.Errorf("%s: exit code %d, want 1", tc.name, code)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%s: the run went ahead and wrote %s", tc.name, out)
		}
	}
}

// TestRunSpillFlag drives the one --clv-spill flag end to end: the policy
// named after "=" decides whether evictions reach the disk tier, the bare
// flag means hybrid, and an unknown name is refused.
func TestRunSpillFlag(t *testing.T) {
	dir, _ := writeDataset(t)
	statsPath := filepath.Join(dir, "stats.json")
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", filepath.Join(dir, "result.jplace"),
		"--chunk-size", "10",
		"--maxmem", "1500K",
		"--stats-json", statsPath,
	}
	for _, tc := range []struct {
		flag       string
		wantErr    bool
		wantWrites bool
	}{
		{"--clv-spill=discard", false, false},
		{"--clv-spill=spill", false, true},
		{"--clv-spill", false, true}, // hybrid spills until its cost model is calibrated
		{"--clv-spill=bogus", true, false},
	} {
		var buf bytes.Buffer
		err := run(context.Background(), append(base, tc.flag), &buf)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s accepted", tc.flag)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		data, err := os.ReadFile(statsPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep statsDoc
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Telemetry.AMC.Evictions == 0 {
			t.Fatalf("%s: no evictions at 1500K, nothing to spill", tc.flag)
		}
		if w := rep.Telemetry.Spill.Writes; (w > 0) != tc.wantWrites {
			t.Errorf("%s: %d spill writes, want writes: %v", tc.flag, w, tc.wantWrites)
		}
	}
}

// TestFlagSurfaceGolden pins epang's flag names and defaults. The golden was
// dumped from the parent of the change that introduced the shared binder; its
// only diff since is the one flag that change deleted. Flag names reach
// users' jplace files through the invocation field, so a change here is a
// contract change.
func TestFlagSurfaceGolden(t *testing.T) {
	fs, _ := newFlags()
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%q\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestRunRejectsFlagsADatabaseAnswers: beside --db, an explicitly given
// reference, model, fitting or saving flag used to be dropped without a word,
// so a run could place under a model other than the one on its command line.
func TestRunRejectsFlagsADatabaseAnswers(t *testing.T) {
	dir, _ := writeDataset(t)
	db := filepath.Join(dir, "ref.db")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"), "--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"), "--save-db", db, "--out", filepath.Join(dir, "a.jplace"),
	}, &buf); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "db.jplace")
	for _, extra := range [][]string{
		{"--tree", filepath.Join(dir, "tree.nwk")},
		{"--ref-msa", filepath.Join(dir, "ref.fasta")},
		{"--model", "JC69"},
		{"--type", "AA"},
		{"--type", "NT"}, // explicit, even when it restates the default
		{"--emp-freqs=false"},
		{"--fit"},
		{"--save-db", filepath.Join(dir, "again.db")},
		{"--split", filepath.Join(dir, "combined.fasta")},
	} {
		args := append([]string{"--db", db, "--query", filepath.Join(dir, "query.fasta"), "--out", out}, extra...)
		err := run(context.Background(), args, &buf)
		name := strings.SplitN(extra[0], "=", 2)[0]
		if err == nil || !strings.Contains(err.Error(), "--db") || !strings.Contains(err.Error(), name) {
			t.Errorf("--db with %v: err = %v, want a usage error naming both flags", extra, err)
			continue
		}
		if code := placement.ExitCode(err); code != 1 {
			t.Errorf("--db with %v: exit code %d, want 1", extra, code)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("--db with %v: the run went ahead and wrote %s", extra, out)
		}
	}
}
