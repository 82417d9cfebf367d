package seq

import (
	"bytes"
	"testing"
)

// FuzzReadFasta asserts the parser's safety contract on arbitrary input: no
// panics, and on success only well-formed output — non-empty unique labels
// and no more sequence data than the input itself contained (a parser that
// fabricates or duplicates data would break the bound).
func FuzzReadFasta(f *testing.F) {
	f.Add([]byte(">a\nACGT\n>b\nAC-T\n"))
	f.Add([]byte(">a desc text\nAC GT\nACGT\n"))
	f.Add([]byte(">a\nACGT\n>a\nACGT\n")) // duplicate label: must error, not panic
	f.Add([]byte("no header\n"))
	f.Add([]byte(">\nACGT\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz work, not an invariant
		}
		seqs, err := ReadFasta(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(seqs) == 0 {
			t.Fatal("success with zero sequences")
		}
		seen := make(map[string]bool, len(seqs))
		total := 0
		for _, s := range seqs {
			if s.Label == "" {
				t.Fatal("accepted empty label")
			}
			if seen[s.Label] {
				t.Fatalf("accepted duplicate label %q", s.Label)
			}
			seen[s.Label] = true
			total += len(s.Data)
		}
		if total > len(data) {
			t.Fatalf("parsed %d data bytes from %d input bytes", total, len(data))
		}
	})
}
