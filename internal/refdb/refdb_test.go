package refdb

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := workload.Neotrop(64, 41)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ds.Tree, ds.RefMSA, "GTR{1.1/2.9/0.7/0.9/3.2/1}+G4{0.7}", nil); err != nil {
		t.Fatal(err)
	}
	ref, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Tree.NumLeaves() != ds.Tree.NumLeaves() {
		t.Fatalf("leaves %d != %d", ref.Tree.NumLeaves(), ds.Tree.NumLeaves())
	}
	if ref.MSA.Len() != ds.RefMSA.Len() || ref.MSA.Width() != ds.RefMSA.Width() {
		t.Fatal("alignment shape changed")
	}
	if ref.Model.States() != 4 || ref.Rates.NumRates() != 4 {
		t.Fatalf("model reconstruction: %d states, %d rates", ref.Model.States(), ref.Rates.NumRates())
	}
	if ref.Alphabet != seq.DNA {
		t.Fatal("alphabet wrong")
	}
}

func TestLoadedReferencePlacesIdentically(t *testing.T) {
	ds, err := workload.Neotrop(64, 43)
	if err != nil {
		t.Fatal(err)
	}
	spec := "GTR{1.1/2.9/0.7/0.9/3.2/1}+G4{0.7}"
	var buf bytes.Buffer
	if err := Save(&buf, ds.Tree, ds.RefMSA, spec, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	build := func(trr *Reference) *placement.Result {
		comp, err := seq.Compress(trr.MSA)
		if err != nil {
			t.Fatal(err)
		}
		part, err := phylo.NewPartition(trr.Model, trr.Rates, comp, trr.Tree)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := placement.EncodeQueries(trr.Alphabet, ds.Queries[:15], trr.MSA.Width())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := placement.New(part, trr.Tree, placement.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Place(queries)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fromDB := build(ref)

	// Direct construction with the same spec on the original objects.
	m, rates, err := model.ParseSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := build(&Reference{
		Tree: ds.Tree, MSA: ds.RefMSA, Alphabet: ds.Alphabet,
		Model: m, Rates: rates,
	})
	if len(fromDB.Queries) != len(direct.Queries) {
		t.Fatal("query counts differ")
	}
	// Edge IDs are parse-order dependent, so the round-tripped tree numbers
	// its branches differently; compare placements by the bipartition of
	// leaf names the edge induces.
	for i := range fromDB.Queries {
		a := edgeSignature(ref.Tree, fromDB.Queries[i].Placements[0].EdgeNum)
		b := edgeSignature(ds.Tree, direct.Queries[i].Placements[0].EdgeNum)
		if a != b {
			t.Fatalf("query %d best bipartition %q != %q", i, a, b)
		}
	}
}

// edgeSignature identifies an edge topology-independently: the sorted leaf
// names of the smaller side of the bipartition it induces.
func edgeSignature(tr *tree.Tree, edgeID int) string {
	e := tr.Edges[edgeID]
	a, _ := e.Nodes()
	side := map[string]bool{}
	var walk func(n *tree.Node, from *tree.Edge)
	walk = func(n *tree.Node, from *tree.Edge) {
		if n.IsLeaf() {
			side[n.Name] = true
			return
		}
		for _, ne := range n.Edges {
			if ne == from {
				continue
			}
			walk(ne.Other(n), ne)
		}
	}
	walk(a, e)
	names := make([]string, 0, len(side))
	for n := range side {
		names = append(names, n)
	}
	if len(names) > tr.NumLeaves()/2 {
		// Use the complement for a canonical (smaller) side.
		other := map[string]bool{}
		for _, leaf := range tr.Leaves() {
			if !side[leaf.Name] {
				other[leaf.Name] = true
			}
		}
		names = names[:0]
		for n := range other {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Load(strings.NewReader("not a database at all, definitely")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Load(strings.NewReader(magic + "garbage")); err == nil {
		t.Error("corrupt body accepted")
	}
}

func TestSaveRejectsBadSpec(t *testing.T) {
	ds, err := workload.Neotrop(64, 47)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ds.Tree, ds.RefMSA, "BOGUS", nil); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestLoadRejectsInconsistentDB(t *testing.T) {
	// A DB whose alignment is missing a tree leaf must be rejected.
	ds, err := workload.Neotrop(64, 53)
	if err != nil {
		t.Fatal(err)
	}
	short := *ds.RefMSA
	short.Sequences = short.Sequences[1:]
	var buf bytes.Buffer
	if err := Save(&buf, ds.Tree, &short, "JC", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("DB with missing leaf sequence accepted")
	}
}

// TestDuplicateLeafNamesRejected: a database whose tree has two leaves of
// one name loads, but the partition every engine places against fails,
// naming the leaf — both would read one alignment row.
func TestDuplicateLeafNamesRejected(t *testing.T) {
	tr, err := tree.ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,A:0.1):0.1,D:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []seq.Sequence
	for _, name := range []string{"A", "B", "C", "D"} {
		seqs = append(seqs, seq.Sequence{Label: name, Data: []byte("ACGTACGT")})
	}
	msa, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tr, msa, "JC", nil); err != nil {
		t.Fatal(err)
	}
	ref, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Partition(); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Fatalf("duplicate leaf name: err = %v, want an error naming \"A\"", err)
	}
}

func TestSaveLoadAminoAcid(t *testing.T) {
	ds, err := workload.Serratus(64, 55)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ds.Tree, ds.RefMSA, "SYNAA+G4", nil); err != nil {
		t.Fatal(err)
	}
	ref, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Alphabet != seq.AA || ref.Model.States() != 20 {
		t.Fatalf("AA DB reconstructed wrong: %d states", ref.Model.States())
	}
}
