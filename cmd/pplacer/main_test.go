package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/jplace"
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
