package seq

import (
	"errors"
	"strings"
	"testing"
)

// Duplicate labels must be rejected with the typed error:
// silently accepting them would corrupt everything keyed by label downstream
// (per-query jplace attribution most visibly).
func TestDuplicateLabelsRejected(t *testing.T) {
	cases := []struct {
		name  string
		input string
		dup   bool
		label string
		line  int
	}{
		{
			name:  "fasta-unique-ok",
			input: ">a\nACGT\n>b\nACGT\n",
		},
		{
			name:  "fasta-duplicate",
			input: ">a\nACGT\n>b\nACGT\n>a\nTTTT\n",
			dup:   true, label: "a", line: 5,
		},
		{
			name: "fasta-duplicate-first-token",
			// Only the first whitespace-delimited token is the label, so
			// differing descriptions do not disambiguate.
			input: ">a desc one\nACGT\n>a desc two\nACGT\n",
			dup:   true, label: "a", line: 3,
		},
		{
			name:  "fasta-adjacent-duplicate",
			input: ">x\nAC\n>x\nGT\n",
			dup:   true, label: "x", line: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFasta(strings.NewReader(tc.input))
			if !tc.dup {
				if err != nil {
					t.Fatalf("unique labels rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrDuplicateLabel) {
				t.Fatalf("duplicate label not flagged, err = %v", err)
			}
			var de *DuplicateLabelError
			if !errors.As(err, &de) {
				t.Fatalf("error is not a *DuplicateLabelError: %v", err)
			}
			if de.Label != tc.label {
				t.Errorf("Label = %q, want %q", de.Label, tc.label)
			}
			if de.Line != tc.line {
				t.Errorf("Line = %d, want %d", de.Line, tc.line)
			}
		})
	}
}
