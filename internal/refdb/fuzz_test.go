package refdb

import (
	"bytes"
	"testing"

	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// FuzzRefdbLoad: Load must reject any byte string it cannot use with an
// error, never a panic or an unbounded allocation, and a database it accepts
// must bind to a partition or say why, and survive a Save/Load round trip.
// The seeds are Saved databases of a small NT and a small AA reference.
func FuzzRefdbLoad(f *testing.F) {
	for _, tc := range []struct {
		alphabet *seq.Alphabet
		rows     []string
		spec     string
		freqs    []float64
	}{
		{seq.DNA, []string{"ACGTACGTAC", "ACGTTCGTAA", "ACCTACGGAC", "TCGTAC-TAC"}, "GTR{1/2/1/1/2/1}+G4{0.5}", []float64{0.1, 0.2, 0.3, 0.4}},
		{seq.AA, []string{"ARNDCQEGHI", "ARNDCQEGHL", "ARKDCQEGHI", "ARNDCQ-GWI"}, "SYNAA+G2", nil},
	} {
		tr, err := tree.ParseNewick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);")
		if err != nil {
			f.Fatal(err)
		}
		var seqs []seq.Sequence
		for i, row := range tc.rows {
			seqs = append(seqs, seq.Sequence{Label: string(rune('a' + i)), Data: []byte(row)})
		}
		msa, err := seq.NewMSA(tc.alphabet, seqs)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, tr, msa, tc.spec, tc.freqs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound fuzz work, not an invariant
		}
		ref, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := ref.Partition(); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, ref.Tree, ref.MSA, ref.Spec, ref.Freqs); err != nil {
			t.Fatalf("accepted database failed to save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved database failed to load: %v", err)
		}
		if again.Spec != ref.Spec || again.Tree.WriteNewick() != ref.Tree.WriteNewick() || again.MSA.Len() != ref.MSA.Len() {
			t.Fatal("Save/Load round trip changed the reference")
		}
	})
}
