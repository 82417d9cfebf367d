// Package seq provides the molecular-sequence substrate for the placement
// system: character alphabets (nucleotide with full IUPAC ambiguity codes,
// amino acid), multiple sequence alignments, FASTA IO, and site-pattern
// compression.
//
// Characters are encoded as state bitmasks (uint32): bit s is set when the
// observed character is compatible with state s. Ambiguity codes and gaps
// therefore need no special casing in the likelihood kernels — a gap is
// simply the all-ones mask.
package seq

import (
	"fmt"
	"strings"
)

// Alphabet maps sequence characters to state bitmasks.
type Alphabet struct {
	name    string
	states  int
	codes   [256]uint32 // 0 means invalid character
	symbols string      // canonical symbol per state, index = state
	gapMask uint32
}

// Name returns the alphabet's human-readable name ("DNA" or "AA").
func (a *Alphabet) Name() string { return a.name }

// States returns the number of character states (4 for DNA, 20 for AA).
func (a *Alphabet) States() int { return a.states }

// GapMask returns the all-states mask used for gaps and fully ambiguous
// characters.
func (a *Alphabet) GapMask() uint32 { return a.gapMask }

// Symbol returns the canonical character for a concrete state index.
func (a *Alphabet) Symbol(state int) byte { return a.symbols[state] }

// Code returns the state bitmask for character c, or an error if c is not a
// valid character of this alphabet. Lower-case input is accepted.
func (a *Alphabet) Code(c byte) (uint32, error) {
	m := a.codes[c]
	if m == 0 {
		return 0, fmt.Errorf("seq: invalid %s character %q", a.name, c)
	}
	return m, nil
}

// Encode converts a character sequence into state bitmasks.
func (a *Alphabet) Encode(s []byte) ([]uint32, error) {
	out := make([]uint32, len(s))
	for i, c := range s {
		m, err := a.Code(c)
		if err != nil {
			return nil, fmt.Errorf("at position %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

func (a *Alphabet) set(chars string, mask uint32) {
	up := strings.ToUpper(chars)
	lo := strings.ToLower(chars)
	for i := 0; i < len(chars); i++ {
		a.codes[up[i]] = mask
		a.codes[lo[i]] = mask
	}
}

// stateBit returns the mask with only the given states set, by canonical
// symbol.
func (a *Alphabet) maskOf(symbols string) uint32 {
	var m uint32
	for i := 0; i < len(symbols); i++ {
		idx := strings.IndexByte(a.symbols, symbols[i])
		if idx < 0 {
			panic("seq: unknown canonical symbol " + string(symbols[i]))
		}
		m |= 1 << uint(idx)
	}
	return m
}

// DNA is the nucleotide alphabet (states A, C, G, T) with the full set of
// IUPAC ambiguity codes. U is treated as T.
var DNA = newDNA()

func newDNA() *Alphabet {
	a := &Alphabet{name: "DNA", states: 4, symbols: "ACGT"}
	a.gapMask = (1 << 4) - 1
	for i := 0; i < 4; i++ {
		a.set(string(a.symbols[i]), 1<<uint(i))
	}
	a.set("U", a.maskOf("T"))
	a.set("R", a.maskOf("AG"))
	a.set("Y", a.maskOf("CT"))
	a.set("S", a.maskOf("CG"))
	a.set("W", a.maskOf("AT"))
	a.set("K", a.maskOf("GT"))
	a.set("M", a.maskOf("AC"))
	a.set("B", a.maskOf("CGT"))
	a.set("D", a.maskOf("AGT"))
	a.set("H", a.maskOf("ACT"))
	a.set("V", a.maskOf("ACG"))
	a.set("N", a.gapMask)
	a.set("-", a.gapMask)
	a.set("?", a.gapMask)
	a.set(".", a.gapMask)
	a.set("X", a.gapMask)
	return a
}

// AA is the 20-state amino-acid alphabet with the common ambiguity codes
// (B = N/D, Z = Q/E, J = I/L, X/gap = fully ambiguous).
var AA = newAA()

func newAA() *Alphabet {
	a := &Alphabet{name: "AA", states: 20, symbols: "ARNDCQEGHILKMFPSTWYV"}
	a.gapMask = (1 << 20) - 1
	for i := 0; i < 20; i++ {
		a.set(string(a.symbols[i]), 1<<uint(i))
	}
	a.set("B", a.maskOf("ND"))
	a.set("Z", a.maskOf("QE"))
	a.set("J", a.maskOf("IL"))
	a.set("U", a.maskOf("C")) // selenocysteine scored as cysteine
	a.set("O", a.maskOf("K")) // pyrrolysine scored as lysine
	a.set("X", a.gapMask)
	a.set("-", a.gapMask)
	a.set("?", a.gapMask)
	a.set("*", a.gapMask)
	a.set(".", a.gapMask)
	return a
}
