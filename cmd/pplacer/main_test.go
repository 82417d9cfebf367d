package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/workload"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	ds, err := workload.Neotrop(64, 31)
	if err != nil {
		t.Fatal(err)
	}
	ds.Queries = ds.Queries[:10]
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tree.nwk"), []byte(ds.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ref, q bytes.Buffer
	if err := seq.WriteFasta(&ref, ds.RefMSA.Sequences); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFasta(&q, ds.Queries); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ref.fasta"), ref.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "query.fasta"), q.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunMemoryAndFileModes(t *testing.T) {
	dir := writeDataset(t)
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
	}
	outA := filepath.Join(dir, "mem.jplace")
	if err := run(append(base, "--out", outA)); err != nil {
		t.Fatal(err)
	}
	outB := filepath.Join(dir, "file.jplace")
	if err := run(append(base, "--out", outB, "--mmap-file", filepath.Join(dir, "clv.bin"))); err != nil {
		t.Fatal(err)
	}
	read := func(p string) *jplace.Document {
		f, err := os.Open(p)
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
	a, b := read(outA), read(outB)
	if len(a.Queries) != 10 || len(b.Queries) != 10 {
		t.Fatalf("query counts: %d / %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i].Placements[0] != b.Queries[i].Placements[0] {
			t.Fatalf("file mode changed best placement of %s", a.Queries[i].Name)
		}
	}
}

// stripInvocation blanks the one legitimately differing line (the recorded
// command line) so the rest of the document can be compared byte-for-byte.
func stripInvocation(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, `"invocation"`) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestRunScoresTheReferenceEpangOpens: the CLI evaluates the tree and
// alignment under the model epang opens them with (refdb.Source with
// empirical frequencies: GTR+G4 here), so its jplace is the in-process
// engine's on that partition, the command line aside.
func TestRunScoresTheReferenceEpangOpens(t *testing.T) {
	dir := writeDataset(t)
	src := refdb.Source{Tree: filepath.Join(dir, "tree.nwk"), RefMSA: filepath.Join(dir, "ref.fasta"), Type: "NT", EmpFreqs: true}
	qpath, got := filepath.Join(dir, "query.fasta"), filepath.Join(dir, "cli.jplace")
	if err := run([]string{"--tree", src.Tree, "--ref-msa", src.RefMSA, "--query", qpath, "--out", got}); err != nil {
		t.Fatal(err)
	}

	ref, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	part, err := ref.Partition()
	if err != nil {
		t.Fatal(err)
	}
	qf, err := os.Open(qpath)
	if err != nil {
		t.Fatal(err)
	}
	qseqs, err := seq.ReadFasta(qf)
	qf.Close()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := placement.EncodeQueries(ref.Alphabet, qseqs, ref.MSA.Width())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pplacer.New(part, ref.Tree, pplacer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Place(queries)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "in-process.jplace")
	f, err := os.Create(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := jplace.Write(f, &jplace.Document{Tree: jplace.TreeString(ref.Tree), Queries: res, Invocation: "in-process"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if stripInvocation(t, got) != stripInvocation(t, want) {
		t.Error("the CLI's jplace differs from pplacer.New on the partition refdb opens")
	}
}

// TestRunLenientAndStrict appends a malformed read to the queries: the
// default run names it on stderr and places the rest, --strict fails it as an
// input error (exit 1).
func TestRunLenientAndStrict(t *testing.T) {
	dir := writeDataset(t)
	qpath := filepath.Join(dir, "query.fasta")
	f, err := os.OpenFile(qpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(">truncated\nACGT\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "lenient.jplace")
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", qpath,
		"--out", out,
	}
	// run writes its skip lines to os.Stderr; capture them in a file.
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	err = run(base)
	os.Stderr = saved
	stderr.Close()
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logged), `pplacer: skipping: placement: malformed query "truncated"`) {
		t.Fatalf("skip not reported on stderr: %q", logged)
	}
	rf, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	doc, err := jplace.Read(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Queries) != 10 {
		t.Fatalf("lenient run placed %d queries, want 10", len(doc.Queries))
	}

	err = run(append(base, "--strict"))
	if !errors.Is(err, placement.ErrQueryMalformed) || placement.ExitCode(err) != 1 {
		t.Fatalf("strict run: err = %v, want a malformed-query input error (exit 1)", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing args accepted")
	}
	if err := run([]string{"--tree", "nope.nwk", "--ref-msa", "x", "--query", "y"}); err == nil {
		t.Error("missing files accepted")
	}
}

// TestRunRejectsPositionalArguments: a stray token must be a usage error, not
// a silent end of flag parsing that drops every flag after it.
func TestRunRejectsPositionalArguments(t *testing.T) {
	dir := writeDataset(t)
	out := filepath.Join(dir, "r.jplace")
	base := []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", filepath.Join(dir, "query.fasta"),
		"--out", out,
	}
	for _, extra := range [][]string{
		{"oops", "--threads", "2"},
		{"--threads", "2", "oops"},
	} {
		err := run(append(base, extra...))
		if err == nil || !strings.Contains(err.Error(), `"oops"`) {
			t.Errorf("%v: err = %v, want a usage error naming the stray token", extra, err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%v: the run went ahead and wrote %s", extra, out)
		}
	}
}
