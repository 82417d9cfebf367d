package seq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
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

// ReadFasta parses FASTA-formatted sequences from r. Sequence data may span
// multiple lines; whitespace inside sequence lines is ignored. Labels are the
// first whitespace-delimited token of the header line and must be unique
// (a repeated label is a *DuplicateLabelError).
func ReadFasta(r io.Reader) ([]Sequence, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var seqs []Sequence
	var cur *Sequence
	seen := make(map[string]bool)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '>' {
			label := strings.Fields(text[1:])
			if len(label) == 0 {
				return nil, fmt.Errorf("seq: fasta line %d: empty header", line)
			}
			if seen[label[0]] {
				return nil, &DuplicateLabelError{Label: label[0], Line: line}
			}
			seen[label[0]] = true
			seqs = append(seqs, Sequence{Label: label[0]})
			cur = &seqs[len(seqs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("seq: fasta line %d: sequence data before first header", line)
		}
		for i := 0; i < len(text); i++ {
			c := text[i]
			if c == ' ' || c == '\t' {
				continue
			}
			cur.Data = append(cur.Data, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: reading fasta: %w", err)
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
