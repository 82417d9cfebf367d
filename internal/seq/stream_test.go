package seq

import (
	"strings"
	"testing"
)

func scanAll(t *testing.T, input string) []Sequence {
	t.Helper()
	sc := NewFastaScanner(strings.NewReader(input))
	var out []Sequence
	for {
		s, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, s)
	}
	return out
}

func TestFastaScannerMatchesReadFasta(t *testing.T) {
	input := ">a desc\nACGT\nACGT\n\n>b\nTT TT\n>c\nacgt\n"
	streamed := scanAll(t, input)
	bulk, err := ReadFasta(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(bulk) {
		t.Fatalf("streamed %d, bulk %d", len(streamed), len(bulk))
	}
	for i := range bulk {
		if streamed[i].Label != bulk[i].Label || string(streamed[i].Data) != string(bulk[i].Data) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, streamed[i], bulk[i])
		}
	}
}

func TestFastaScannerEmpty(t *testing.T) {
	sc := NewFastaScanner(strings.NewReader(""))
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("empty input: ok=%v err=%v", ok, err)
	}
	// Next after EOF stays EOF.
	if _, ok, _ := sc.Next(); ok {
		t.Fatal("scanner revived after EOF")
	}
}

func TestFastaScannerErrors(t *testing.T) {
	sc := NewFastaScanner(strings.NewReader("ACGT\n"))
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("data before header accepted")
	}
	sc = NewFastaScanner(strings.NewReader(">\nACGT\n"))
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("empty header accepted")
	}
}

func TestFastaScannerEmptyRecord(t *testing.T) {
	out := scanAll(t, ">empty\n>full\nAC\n")
	if len(out) != 2 {
		t.Fatalf("records = %d", len(out))
	}
	if len(out[0].Data) != 0 || string(out[1].Data) != "AC" {
		t.Fatalf("records = %+v", out)
	}
}

func TestSplitMSA(t *testing.T) {
	// The query rows are not validated here: a short read and an invalid
	// character pass through to the query encoder.
	seqs := []Sequence{
		{Label: "ref1", Data: []byte("ACGT")}, {Label: "q1", Data: []byte("AA")},
		{Label: "ref2", Data: []byte("TGCA")}, {Label: "q2", Data: []byte("CC!C")},
	}
	ref, query, err := SplitMSA(seqs, []string{"ref1", "ref2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 || len(query) != 2 {
		t.Fatalf("split %d/%d", len(ref), len(query))
	}
	for _, s := range ref {
		if s.Label != "ref1" && s.Label != "ref2" {
			t.Fatalf("wrong ref %q", s.Label)
		}
	}
	if query[0].Label != "q1" || query[1].Label != "q2" {
		t.Fatalf("query rows %q, %q out of input order", query[0].Label, query[1].Label)
	}
	if _, _, err := SplitMSA(seqs, []string{"ref1", "missing"}); err == nil {
		t.Fatal("missing reference accepted")
	}
}
