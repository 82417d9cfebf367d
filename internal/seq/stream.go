package seq

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// FastaScanner streams sequences from FASTA input one record at a time,
// without holding the whole file in memory — the input side of EPA-NG's
// query chunking (Section II: queries are processed in chunks partly "to
// limit the impact of the sheer QS data volume on the overall memory
// footprint"). Labels are the first whitespace-delimited
// token of the header line; sequence data may span lines, and whitespace
// inside them is ignored. The stream does not check labels for uniqueness:
// that would hold every label of the input at once (ReadFasta does, for
// inputs it holds whole anyway).
type FastaScanner struct {
	sc         *bufio.Scanner
	pending    string // header of the next record, already consumed
	done       bool
	line       int
	headerLine int // 1-based line of the header of the record Next last returned
}

// NewFastaScanner wraps a reader.
func NewFastaScanner(r io.Reader) *FastaScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	return &FastaScanner{sc: sc}
}

// Next returns the next sequence. ok is false at end of input.
func (f *FastaScanner) Next() (s Sequence, ok bool, err error) {
	if f.done {
		return Sequence{}, false, nil
	}
	header := f.pending
	f.pending = ""
	for header == "" {
		if !f.sc.Scan() {
			f.done = true
			if err := f.sc.Err(); err != nil {
				return Sequence{}, false, fmt.Errorf("seq: reading fasta: %w", err)
			}
			return Sequence{}, false, nil
		}
		f.line++
		text := strings.TrimSpace(f.sc.Text())
		if text == "" {
			continue
		}
		if text[0] != '>' {
			return Sequence{}, false, fmt.Errorf("seq: fasta line %d: sequence data before first header", f.line)
		}
		header = text
	}
	f.headerLine = f.line
	fields := strings.Fields(header[1:])
	if len(fields) == 0 {
		return Sequence{}, false, fmt.Errorf("seq: fasta line %d: empty header", f.line)
	}
	s.Label = fields[0]
	for f.sc.Scan() {
		f.line++
		text := strings.TrimSpace(f.sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '>' {
			f.pending = text
			return s, true, nil
		}
		for i := 0; i < len(text); i++ {
			c := text[i]
			if c == ' ' || c == '\t' {
				continue
			}
			s.Data = append(s.Data, c)
		}
	}
	f.done = true
	if err := f.sc.Err(); err != nil {
		return Sequence{}, false, fmt.Errorf("seq: reading fasta: %w", err)
	}
	return s, true, nil
}

// SplitMSA separates the records of a combined alignment into reference rows
// (whose labels appear in refNames) and the remaining query rows — EPA-NG's
// --split preprocessing for inputs where reference and query sequences arrive
// in one aligned file. Every reference name must be present. It validates
// nothing else: the reference rows go on to build an MSA, the query rows to
// the query encoder, each checked as its own kind of input.
func SplitMSA(seqs []Sequence, refNames []string) (ref, query []Sequence, err error) {
	want := make(map[string]bool, len(refNames))
	for _, n := range refNames {
		want[n] = true
	}
	found := 0
	for _, s := range seqs {
		if want[s.Label] {
			ref = append(ref, s)
			found++
		} else {
			query = append(query, s)
		}
	}
	if found != len(want) {
		return nil, nil, fmt.Errorf("seq: SplitMSA found %d of %d reference sequences", found, len(want))
	}
	return ref, query, nil
}
