package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/jplace"
)

// writeDupQueries doubles the dataset's query file: each query appears once
// under its own name and once renamed, a 50%-duplicate workload. The query
// path is streamed (FastaScanner), which permits even repeated labels; the
// rename keeps the jplace name set unambiguous for comparisons.
func writeDupQueries(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "query.fasta"))
	if err != nil {
		t.Fatal(err)
	}
	dup := strings.ReplaceAll(string(data), ">", ">dup_")
	path := filepath.Join(dir, "dupquery.fasta")
	if err := os.WriteFile(path, append(data, []byte(dup)...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
		if strings.Contains(line, `"invocation"`) {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestRunDedupByteIdentical: on a 50%-duplicate workload the jplace output
// is byte-identical (modulo the recorded invocation) to placing each
// sequence once and copying its entry under the duplicate's name, and
// --stats reports the fold.
func TestRunDedupByteIdentical(t *testing.T) {
	dir, _ := writeDataset(t)
	place := func(query, name string) (string, string) {
		out := filepath.Join(dir, name+".jplace")
		var buf bytes.Buffer
		if err := run(context.Background(), []string{
			"--tree", filepath.Join(dir, "tree.nwk"),
			"--ref-msa", filepath.Join(dir, "ref.fasta"),
			"--query", query,
			"--out", out,
			"--chunk-size", "10",
			"--stats",
		}, &buf); err != nil {
			t.Fatal(err)
		}
		return out, buf.String()
	}
	dupOut, stats := place(writeDupQueries(t, dir), "dup")
	if !strings.Contains(stats, "dedup: ") {
		t.Fatalf("--stats did not report dedup:\n%s", stats)
	}
	onceOut, _ := place(filepath.Join(dir, "query.fasta"), "once")
	doc := readJplace(t, onceOut)
	for _, q := range doc.Queries {
		q.Name = "dup_" + q.Name
		doc.Queries = append(doc.Queries, q)
	}
	want := filepath.Join(dir, "want.jplace")
	f, err := os.Create(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := jplace.Write(f, doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if stripInvocation(t, dupOut) != stripInvocation(t, want) {
		t.Fatal("jplace output of the duplicated input differs from placing each sequence once")
	}
}

// TestRunNM: --nm collapses duplicate placements into nm multiplicity
// entries whose multiplicities sum to the input query count.
func TestRunNM(t *testing.T) {
	dir, ds := writeDataset(t)
	qfile := writeDupQueries(t, dir)
	out := filepath.Join(dir, "nm.jplace")
	err := run(context.Background(), []string{
		"--tree", filepath.Join(dir, "tree.nwk"),
		"--ref-msa", filepath.Join(dir, "ref.fasta"),
		"--query", qfile,
		"--out", out,
		"--chunk-size", "100",
		"--nm",
	}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	doc := readJplace(t, out)
	nQueries := 2 * len(ds.Queries)
	if len(doc.Queries) >= nQueries {
		t.Fatalf("nm output has %d entries for %d queries — nothing collapsed", len(doc.Queries), nQueries)
	}
	total := 0.0
	for _, q := range doc.Queries {
		if len(q.NM) == 0 {
			t.Fatalf("entry %q has no nm names", q.Name)
		}
		for _, nm := range q.NM {
			total += nm.Multiplicity
		}
	}
	if int(total) != nQueries {
		t.Fatalf("nm multiplicities sum to %v, want %d", total, nQueries)
	}
}
