package seq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// ErrDuplicateLabel marks an input alignment that names the same sequence
// twice. Duplicate labels used to be silently accepted, which downstream
// corrupts anything keyed by label — most visibly per-query jplace
// attribution, where two results would carry the same name and become
// indistinguishable. Test with errors.Is; retrieve the offending label with
// errors.As on *DuplicateLabelError.
var ErrDuplicateLabel = errors.New("seq: duplicate sequence label")

// DuplicateLabelError identifies the repeated label and the input line of
// its second occurrence.
type DuplicateLabelError struct {
	Label string
	Line  int // 1-based line of the duplicate occurrence
}

func (e *DuplicateLabelError) Error() string {
	return fmt.Sprintf("seq: line %d: duplicate sequence label %q", e.Line, e.Label)
}

// Unwrap lets errors.Is match the ErrDuplicateLabel sentinel.
func (e *DuplicateLabelError) Unwrap() error { return ErrDuplicateLabel }

// ReadFasta parses FASTA-formatted sequences from r by draining a
// FastaScanner, adding the two rules a whole-file read can afford: labels
// must be unique (a repeated label is a *DuplicateLabelError) and the input
// must hold at least one sequence.
func ReadFasta(r io.Reader) ([]Sequence, error) {
	sc := NewFastaScanner(r)
	var seqs []Sequence
	seen := make(map[string]bool)
	for {
		s, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if seen[s.Label] {
			return nil, &DuplicateLabelError{Label: s.Label, Line: sc.headerLine}
		}
		seen[s.Label] = true
		seqs = append(seqs, s)
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("seq: fasta input contains no sequences")
	}
	return seqs, nil
}

// WriteFasta writes sequences in FASTA format with 80-column wrapping.
func WriteFasta(w io.Writer, seqs []Sequence) error {
	bw := bufio.NewWriter(w)
	for _, s := range seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Label); err != nil {
			return err
		}
		for off := 0; off < len(s.Data); off += 80 {
			end := off + 80
			if end > len(s.Data) {
				end = len(s.Data)
			}
			if _, err := bw.Write(s.Data[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
