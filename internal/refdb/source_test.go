package refdb

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phylomem/internal/seq"
	"phylomem/internal/workload"
)

// writeSourceFiles puts a dataset's tree and reference alignment on disk.
func writeSourceFiles(t *testing.T, ds *workload.Dataset) (treeFile, msaFile string) {
	t.Helper()
	dir := t.TempDir()
	treeFile, msaFile = filepath.Join(dir, "tree.nwk"), filepath.Join(dir, "ref.fasta")
	if err := os.WriteFile(treeFile, []byte(ds.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, ds.RefMSA.Sequences); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(msaFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return treeFile, msaFile
}

// sameReference fails the test unless a and b hold equal contents.
func sameReference(t *testing.T, label string, a, b *Reference) {
	t.Helper()
	switch {
	case a.Tree.WriteNewick() != b.Tree.WriteNewick():
		t.Errorf("%s: trees differ", label)
	case !reflect.DeepEqual(a.MSA.Sequences, b.MSA.Sequences):
		t.Errorf("%s: alignments differ", label)
	case a.Alphabet != b.Alphabet:
		t.Errorf("%s: alphabets differ", label)
	case a.Spec != b.Spec || !reflect.DeepEqual(a.Freqs, b.Freqs):
		t.Errorf("%s: spec %q %v vs %q %v", label, a.Spec, a.Freqs, b.Spec, b.Freqs)
	case !reflect.DeepEqual(a.Model, b.Model) || !reflect.DeepEqual(a.Rates, b.Rates):
		t.Errorf("%s: evaluated models differ", label)
	}
}

// TestSourceFormsAgree: the tree + alignment form of a reference and the
// database saved from it open to equal contents, under the default-spec rule
// of either data type and under an explicit spec with the spec's own
// frequencies.
func TestSourceFormsAgree(t *testing.T) {
	nt, err := workload.Neotrop(64, 47)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := workload.Serratus(64, 47)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		ds       *workload.Dataset
		src      Source
		wantSpec string
	}{
		{"NT default spec", nt, Source{EmpFreqs: true}, "GTR+G4"},
		{"NT explicit type and spec", nt, Source{Type: "NT", Model: "JC69+G2"}, "JC69+G2"},
		{"AA default spec", aa, Source{Type: "AA", EmpFreqs: true}, "SYNAA+G4"},
	} {
		src := tc.src
		src.Tree, src.RefMSA = writeSourceFiles(t, tc.ds)
		fromFiles, err := src.Open()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fromFiles.Spec != tc.wantSpec || (fromFiles.Freqs != nil) != src.EmpFreqs {
			t.Errorf("%s: spec %q, freqs %v", tc.name, fromFiles.Spec, fromFiles.Freqs)
		}
		db := filepath.Join(t.TempDir(), "ref.db")
		f, err := os.Create(db)
		if err != nil {
			t.Fatal(err)
		}
		if err := Save(f, fromFiles.Tree, fromFiles.MSA, fromFiles.Spec, fromFiles.Freqs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		fromDB, err := Source{DB: db}.Open()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameReference(t, tc.name, fromFiles, fromDB)
	}

	if _, err := (Source{Tree: "x.nwk", RefMSA: "x.fasta", Type: "XX"}).Alphabet(); err == nil {
		t.Error("unknown data type accepted")
	}
}

// TestCheckFlags: a flag the naming flag already answers is refused only when
// it was given explicitly, whatever value it was given.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // flag the error must name; "" = accepted
	}{
		{[]string{"--db", "r.db"}, ""},
		{[]string{"--tree", "t.nwk", "--model", "JC69", "--fit"}, ""},
		{[]string{"--db", "r.db", "--tree", "t.nwk"}, "--tree"},
		{[]string{"--db", "r.db", "--ref-msa", "r.fasta"}, "--ref-msa"},
		{[]string{"--model", "JC69", "--db", "r.db"}, "--model"},
		{[]string{"--db", "r.db", "--type", "NT"}, "--type"},
		{[]string{"--db", "r.db", "--emp-freqs"}, "--emp-freqs"},
		{[]string{"--db", "r.db", "--fit"}, "--fit"},
	} {
		var s Source
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.BindFlags(fs)
		fs.Bool("fit", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := CheckFlags(fs, "db", "fit")
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "--db") || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%v: err = %v, want one naming --db and %s", tc.args, err, tc.bad)
		}
	}
}
