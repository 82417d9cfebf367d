package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustMSA(t *testing.T, a *Alphabet, rows map[string]string) *MSA {
	t.Helper()
	var seqs []Sequence
	// Deterministic ordering for reproducibility.
	labels := make([]string, 0, len(rows))
	for l := range rows {
		labels = append(labels, l)
	}
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[j] < labels[i] {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
	}
	for _, l := range labels {
		seqs = append(seqs, Sequence{Label: l, Data: []byte(rows[l])})
	}
	m, err := NewMSA(a, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMSAValidation(t *testing.T) {
	if _, err := NewMSA(DNA, nil); err == nil {
		t.Error("empty alignment accepted")
	}
	if _, err := NewMSA(DNA, []Sequence{{Label: "a", Data: []byte("AC")}, {Label: "b", Data: []byte("ACG")}}); err == nil {
		t.Error("ragged alignment accepted")
	}
	if _, err := NewMSA(DNA, []Sequence{{Label: "a", Data: []byte("AC")}, {Label: "a", Data: []byte("GT")}}); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewMSA(DNA, []Sequence{{Label: "", Data: []byte("AC")}}); err == nil {
		t.Error("empty label accepted")
	}
	if _, err := NewMSA(DNA, []Sequence{{Label: "a", Data: []byte("AZ")}}); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestMSAAccessors(t *testing.T) {
	m := mustMSA(t, DNA, map[string]string{"a": "ACGT", "b": "TGCA"})
	if m.Len() != 2 || m.Width() != 4 {
		t.Fatalf("Len/Width = %d/%d", m.Len(), m.Width())
	}
	if m.Index("b") != 1 || m.Index("zz") != -1 {
		t.Fatalf("Index lookup broken")
	}
}

func TestCompressCollapsesIdenticalColumns(t *testing.T) {
	// Columns: 0 and 2 identical (A/T), 1 unique, 3 identical to 0 via U==T.
	m := mustMSA(t, DNA, map[string]string{
		"a": "AGAA",
		"b": "TCTU",
	})
	c, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPatterns() != 2 {
		t.Fatalf("patterns = %d, want 2", c.NumPatterns())
	}
	if c.OriginalWidth() != 4 {
		t.Fatalf("original width = %d", c.OriginalWidth())
	}
	total := 0.0
	for _, w := range c.Weights {
		total += w
	}
	if total != 4 {
		t.Fatalf("weights sum to %g, want 4", total)
	}
	// Sites 0, 2, 3 must share a pattern distinct from site 1.
	if c.SiteToPattern[0] != c.SiteToPattern[2] || c.SiteToPattern[0] != c.SiteToPattern[3] {
		t.Fatalf("identical columns map to different patterns: %v", c.SiteToPattern)
	}
	if c.SiteToPattern[0] == c.SiteToPattern[1] {
		t.Fatalf("distinct columns map to same pattern: %v", c.SiteToPattern)
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	// Property: for random alignments, reconstructing column codes from the
	// pattern table via SiteToPattern reproduces the original encoding.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ntax := 2 + r.Intn(6)
		width := 1 + r.Intn(40)
		chars := []byte("ACGT-NRY")
		seqs := make([]Sequence, ntax)
		for i := range seqs {
			data := make([]byte, width)
			for j := range data {
				data[j] = chars[r.Intn(len(chars))]
			}
			seqs[i] = Sequence{Label: string(rune('a' + i)), Data: data}
		}
		m, err := NewMSA(DNA, seqs)
		if err != nil {
			return false
		}
		c, err := Compress(m)
		if err != nil {
			return false
		}
		for t0 := 0; t0 < ntax; t0++ {
			enc, err := DNA.Encode(seqs[t0].Data)
			if err != nil {
				return false
			}
			for j := 0; j < width; j++ {
				if c.Patterns[t0][c.SiteToPattern[j]] != enc[j] {
					return false
				}
			}
		}
		// Weights count sites per pattern.
		counts := make([]float64, c.NumPatterns())
		for _, p := range c.SiteToPattern {
			counts[p]++
		}
		for p, w := range c.Weights {
			if counts[p] != w {
				return false
			}
		}
		// Patterns are numbered by first occurrence: the first column of
		// pattern p precedes the first column of pattern p+1.
		next := 0
		for _, p := range c.SiteToPattern {
			if p > next {
				return false
			}
			if p == next {
				next++
			}
		}
		return next == c.NumPatterns()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressTaxonIndex(t *testing.T) {
	m := mustMSA(t, DNA, map[string]string{"x": "AC", "y": "GT"})
	c, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.TaxonIndex("y") != 1 || c.TaxonIndex("nope") != -1 {
		t.Fatal("TaxonIndex lookup broken")
	}
}

func TestFastaRoundTrip(t *testing.T) {
	in := []Sequence{
		{Label: "seq1", Data: []byte("ACGTACGTACGT")},
		{Label: "seq2", Data: bytes.Repeat([]byte("ACGT"), 50)}, // forces wrapping
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d sequences", len(out))
	}
	for i := range in {
		if out[i].Label != in[i].Label || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("round trip mismatch for %q", in[i].Label)
		}
	}
}

func TestFastaHeaderTokenization(t *testing.T) {
	out, err := ReadFasta(strings.NewReader(">id1 description here\nAC GT\nacgt\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Label != "id1" {
		t.Fatalf("label = %q", out[0].Label)
	}
	if string(out[0].Data) != "ACGTacgt" {
		t.Fatalf("data = %q", out[0].Data)
	}
}

func TestFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadFasta(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadFasta(strings.NewReader(">\nACGT\n")); err == nil {
		t.Error("empty header accepted")
	}
}
