package seq

import "fmt"

// Sequence is a named, aligned character sequence.
type Sequence struct {
	Label string
	Data  []byte
}

// MSA is a multiple sequence alignment: equal-length sequences over one
// alphabet.
type MSA struct {
	Alphabet  *Alphabet
	Sequences []Sequence
}

// NewMSA validates that all sequences have equal length and contain only
// characters of the alphabet, and returns the alignment.
func NewMSA(a *Alphabet, seqs []Sequence) (*MSA, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("seq: empty alignment")
	}
	width := len(seqs[0].Data)
	seen := make(map[string]bool, len(seqs))
	for _, s := range seqs {
		if len(s.Data) != width {
			return nil, fmt.Errorf("seq: sequence %q has length %d, want %d", s.Label, len(s.Data), width)
		}
		if s.Label == "" {
			return nil, fmt.Errorf("seq: sequence with empty label")
		}
		if seen[s.Label] {
			return nil, fmt.Errorf("seq: duplicate label %q", s.Label)
		}
		seen[s.Label] = true
		for i, c := range s.Data {
			if _, err := a.Code(c); err != nil {
				return nil, fmt.Errorf("seq: sequence %q position %d: %w", s.Label, i, err)
			}
		}
	}
	return &MSA{Alphabet: a, Sequences: seqs}, nil
}

// Len returns the number of sequences.
func (m *MSA) Len() int { return len(m.Sequences) }

// Width returns the number of alignment columns.
func (m *MSA) Width() int {
	if len(m.Sequences) == 0 {
		return 0
	}
	return len(m.Sequences[0].Data)
}

// Index returns the row of the sequence with the given label, or -1.
func (m *MSA) Index(label string) int {
	for i, s := range m.Sequences {
		if s.Label == label {
			return i
		}
	}
	return -1
}

// Compressed is a site-pattern-compressed view of an alignment: identical
// columns are collapsed into a single pattern with an integer weight. The
// likelihood of an alignment is the pattern likelihoods raised to their
// weights, which is the single most important constant-factor optimization
// in likelihood computation.
//
// Patterns are numbered by first occurrence in site order: pattern p's first
// column precedes pattern p+1's. A contiguous window of sites, such as a
// short read's, then lands on a few long runs of patterns, so phase 2
// re-derives a read's premasked insertion CLV in one or two kernel calls
// instead of one per scattered pattern (DESIGN.md "Premasked phase 2"). Every
// per-pattern value is computed independently of its index, and placement
// folds sites in site order, so the numbering moves no placement bit.
type Compressed struct {
	Alphabet *Alphabet
	Labels   []string
	// Patterns[t] holds, for taxon t, the character codes (bitmasks) of each
	// unique pattern, so len(Patterns[t]) == NumPatterns.
	Patterns [][]uint32
	// Weights[p] is the number of original columns collapsed into pattern p.
	Weights []float64
	// SiteToPattern maps each original column to its pattern index.
	SiteToPattern []int
}

// NumPatterns returns the number of unique site patterns.
func (c *Compressed) NumPatterns() int { return len(c.Weights) }

// OriginalWidth returns the number of columns in the uncompressed alignment.
func (c *Compressed) OriginalWidth() int { return len(c.SiteToPattern) }

// Compress collapses identical alignment columns. Column identity is defined
// over the encoded bitmasks, so e.g. T and U columns compress together.
func Compress(m *MSA) (*Compressed, error) {
	ntax, width := m.Len(), m.Width()
	encoded := make([][]uint32, ntax)
	labels := make([]string, ntax)
	for t, s := range m.Sequences {
		enc, err := m.Alphabet.Encode(s.Data)
		if err != nil {
			return nil, fmt.Errorf("seq: taxon %q: %w", s.Label, err)
		}
		encoded[t] = enc
		labels[t] = s.Label
	}
	c := &Compressed{
		Alphabet:      m.Alphabet,
		Labels:        labels,
		Patterns:      make([][]uint32, ntax),
		SiteToPattern: make([]int, width),
	}
	for t := range c.Patterns {
		c.Patterns[t] = make([]uint32, 0, 64)
	}
	// One pass in site order: a column whose key is new opens the next pattern.
	index := make(map[string]int, width)
	buf := make([]byte, ntax*4)
	for j := 0; j < width; j++ {
		for t := 0; t < ntax; t++ {
			v := encoded[t][j]
			buf[t*4] = byte(v)
			buf[t*4+1] = byte(v >> 8)
			buf[t*4+2] = byte(v >> 16)
			buf[t*4+3] = byte(v >> 24)
		}
		p, ok := index[string(buf)]
		if !ok {
			p = len(c.Weights)
			index[string(buf)] = p
			for t := 0; t < ntax; t++ {
				c.Patterns[t] = append(c.Patterns[t], encoded[t][j])
			}
			c.Weights = append(c.Weights, 0)
		}
		c.Weights[p]++
		c.SiteToPattern[j] = p
	}
	return c, nil
}

// TaxonIndex returns the row of the given label in the compressed alignment,
// or -1 if absent.
func (c *Compressed) TaxonIndex(label string) int {
	for i, l := range c.Labels {
		if l == label {
			return i
		}
	}
	return -1
}
