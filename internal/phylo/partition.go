// Package phylo is the phylogenetic likelihood engine — the Go
// equivalent of libpll-2. It couples a site-pattern-compressed alignment, a
// substitution model with rate heterogeneity, and a tree's tip encodings into
// a Partition, and provides the Felsenstein-pruning kernels: CLV updates
// (with per-site numerical scaling), edge log-likelihoods, insertion-point
// CLVs for placement, and query placement scoring.
//
// CLV layout is [pattern][rate][state] contiguous float64; transition
// matrices are [rate][from][to]. Per-pattern scaling counters accompany every
// CLV and propagate additively from children to parents, exactly as in
// libpll-2.
//
// The kernels come in two implementations: the generic reference path in
// this file (UpdateCLVGeneric, EdgeLogLikGeneric) and the state-count
// specialized dispatch layer in kernels.go, which produces bit-identical
// results (property-tested) while running substantially faster.
package phylo

import (
	"fmt"
	"math"
	"math/bits"

	"phylomem/internal/model"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// Scaling constants: when all entries of a pattern block fall below
// scaleThreshold, the block is multiplied by scaleFactor = 2^256 and the
// pattern's scale counter is incremented. Log-likelihoods subtract
// count*logScaleFactor.
var (
	scaleThreshold = math.Ldexp(1, -256)
	scaleFactor    = math.Ldexp(1, 256)
	logScaleFactor = 256 * math.Ln2
)

// Partition binds alignment, model and tree tips for likelihood computation.
type Partition struct {
	Model *model.Model
	Rates *model.RateHet
	Comp  *seq.Compressed

	// tipCodes[leafID] holds the per-pattern state bitmasks for each leaf of
	// the tree the partition was built against.
	tipCodes [][]uint32
	// The codes those leaves use: the rows the tip tables are built for.
	codes usedCodes

	patterns int
	states   int
	nrates   int
}

// usedCodes is the set of tip codes a partition's leaves use. Only these
// rows of a tip table are built, so a tip operand must carry leaf codes of
// its partition (TipOperand).
type usedCodes struct {
	// dna has bit c set for each 4-state code c the leaves use: the rows
	// dnaTipLUT builds besides the full-ambiguity row, and the code pairs of
	// the tip×tip pair table.
	dna uint16
	// ambig holds, at 20 states, the distinct ambiguous codes (after
	// normTipCode) in first-seen order: rows 20… of a tip table (tipRow).
	ambig []uint32
}

// NewPartition matches the tree's leaf names against the compressed
// alignment and returns a ready-to-use partition. Every leaf must have
// exactly one sequence in the alignment, and no two leaves may share a name.
func NewPartition(m *model.Model, rates *model.RateHet, comp *seq.Compressed, t *tree.Tree) (*Partition, error) {
	if m.States() != comp.Alphabet.States() {
		return nil, fmt.Errorf("phylo: model has %d states but alignment alphabet %q has %d",
			m.States(), comp.Alphabet.Name(), comp.Alphabet.States())
	}
	p := &Partition{
		Model:    m,
		Rates:    rates,
		Comp:     comp,
		patterns: comp.NumPatterns(),
		states:   m.States(),
		nrates:   rates.NumRates(),
		tipCodes: make([][]uint32, t.NumLeaves()),
	}
	// One name → row map, so binding is linear in the leaf count; the first
	// row of a name wins, as in Compressed.TaxonIndex.
	rowOf := make(map[string]int, len(comp.Labels))
	for i := len(comp.Labels) - 1; i >= 0; i-- {
		rowOf[comp.Labels[i]] = i
	}
	taken := make([]bool, len(comp.Labels))
	for _, leaf := range t.Leaves() {
		row, ok := rowOf[leaf.Name]
		if !ok {
			return nil, fmt.Errorf("phylo: tree leaf %q not found in alignment", leaf.Name)
		}
		if taken[row] {
			return nil, fmt.Errorf("phylo: tree has more than one leaf named %q", leaf.Name)
		}
		taken[row] = true
		p.tipCodes[leaf.ID] = comp.Patterns[row]
		switch p.states {
		case 4:
			for _, code := range comp.Patterns[row] {
				p.codes.dna |= 1 << (code & 15)
			}
		case 20:
			for _, code := range comp.Patterns[row] {
				if code = normTipCode(code, 20); !singleState(code) && p.tipRow(code) < 0 {
					p.codes.ambig = append(p.codes.ambig, code)
				}
			}
		}
	}
	return p, nil
}

// tipRow returns the row of code in a 20-state tip table: its state for a
// single-state code, 20+i for the partition's i'th ambiguous code, and −1
// for a code none of the partition's leaves uses.
func (p *Partition) tipRow(code uint32) int {
	code = normTipCode(code, 20)
	if singleState(code) {
		return trailingZeros32(code)
	}
	for i, c := range p.codes.ambig {
		if c == code {
			return 20 + i
		}
	}
	return -1
}

// NumPatterns returns the number of compressed site patterns.
func (p *Partition) NumPatterns() int { return p.patterns }

// States returns the number of character states.
func (p *Partition) States() int { return p.states }

// NumRates returns the number of rate categories.
func (p *Partition) NumRates() int { return p.nrates }

// CLVLen returns the number of float64 values in one CLV.
func (p *Partition) CLVLen() int { return p.patterns * p.nrates * p.states }

// ScaleLen returns the number of int32 scale counters per CLV.
func (p *Partition) ScaleLen() int { return p.patterns }

// CLVBytes returns the memory footprint in bytes of one CLV including its
// scale counters — the unit of the slot-based memory accounting.
func (p *Partition) CLVBytes() int64 { return int64(p.CLVLen())*8 + int64(p.ScaleLen())*4 }

// PLen returns the number of float64 values in a per-rate-category set of
// transition matrices.
func (p *Partition) PLen() int { return p.nrates * p.states * p.states }

// TipCodes returns the per-pattern codes of leaf id. The result aliases
// internal state and must not be modified.
func (p *Partition) TipCodes(leafID int) []uint32 { return p.tipCodes[leafID] }

// FillP fills dst (length PLen) with transition matrices for branch length
// bl under every rate category.
func (p *Partition) FillP(dst []float64, bl float64) {
	if len(dst) != p.PLen() {
		panic(fmt.Sprintf("phylo: FillP dst length %d, want %d", len(dst), p.PLen()))
	}
	ss := p.states * p.states
	for r := 0; r < p.nrates; r++ {
		p.Model.TransitionMatrix(dst[r*ss:(r+1)*ss], bl, p.Rates.Rates[r])
	}
}

// Operand is one input to a pruning step: either a tip (per-pattern codes)
// or an inner CLV with its scale counters.
type Operand struct {
	Tip   []uint32  // non-nil for a leaf
	CLV   []float64 // non-nil for an inner CLV
	Scale []int32   // nil for a leaf
}

// TipOperand wraps leaf codes as an Operand. The kernels read a tip through
// tables built only for the codes the partition's leaves use, so the codes
// must be a leaf's (Partition.TipCodes) or use no other code.
func TipOperand(codes []uint32) Operand { return Operand{Tip: codes} }

// CLVOperand wraps an inner CLV as an Operand.
func CLVOperand(clv []float64, scale []int32) Operand { return Operand{CLV: clv, Scale: scale} }

// IsTip reports whether the operand is a leaf.
func (o Operand) IsTip() bool { return o.Tip != nil }

// normTipCode maps the invalid all-zero tip code to the full-ambiguity mask.
// The alphabet encoders never emit 0 (every valid character has at least one
// compatible state), but a zero code used to read a zeroed LUT row — or skip
// the bitmask walk entirely — silently producing a zero likelihood. Treating
// it as fully ambiguous makes every kernel total and keeps the generic and
// specialized paths in exact agreement.
func normTipCode(code uint32, states int) uint32 {
	if code == 0 {
		return (1 << uint(states)) - 1
	}
	return code
}

// dnaTipLUT precomputes, for 4-state data, the vector (P·tip)[s] for each
// code the partition's leaves use and for the full-ambiguity code 15, under
// every rate category: lut[(r*16+code)*4+s]. Code 0 gets the full-ambiguity
// row (see normTipCode); the rows of other codes are left as they are.
func (p *Partition) dnaTipLUT(pm []float64, lut []float64) {
	const S = 4
	for m := (p.codes.dna | 1<<15) &^ 1; m != 0; m &= m - 1 {
		code := bits.TrailingZeros16(m)
		for r := 0; r < p.nrates; r++ {
			pr := pm[r*S*S : (r+1)*S*S : (r+1)*S*S]
			// Column k of P^r for each state k of code, ascending: per entry
			// the generic bit walk's sum.
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for c := code; c != 0; c &= c - 1 {
				k := bits.TrailingZeros(uint(c))
				s0 += pr[k]
				s1 += pr[S+k]
				s2 += pr[2*S+k]
				s3 += pr[3*S+k]
			}
			out := lut[(r*16+code)*S : (r*16+code)*S+S : (r*16+code)*S+S]
			out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		}
	}
	for r := 0; r < p.nrates; r++ {
		copy(lut[(r*16+0)*S:(r*16+0)*S+S], lut[(r*16+15)*S:(r*16+15)*S+S])
	}
}

// childVector computes x[s] = Σ_{s'} P[s][s'] · child[s'] for one pattern and
// one rate category, where child is either a tip code or a CLV block.
func childVector(x []float64, states int, pr []float64, op Operand, clvOff int, code uint32) {
	if op.Tip != nil {
		// Tip: sum P rows over the states compatible with the observed code.
		code = normTipCode(code, states)
		for s := 0; s < states; s++ {
			row := pr[s*states : s*states+states]
			sum := 0.0
			c := code
			for c != 0 {
				sp := trailingZeros32(c)
				sum += row[sp]
				c &= c - 1
			}
			x[s] = sum
		}
		return
	}
	cv := op.CLV[clvOff : clvOff+states]
	for s := 0; s < states; s++ {
		row := pr[s*states : s*states+states]
		sum := 0.0
		for sp := 0; sp < states; sp++ {
			sum += row[sp] * cv[sp]
		}
		x[s] = sum
	}
}

// trailingZeros32 delegates to math/bits (which inlines to a single
// instruction); the previous hand-rolled loop never terminated on 0.
func trailingZeros32(v uint32) int { return bits.TrailingZeros32(v) }

// singleState reports whether code names exactly one state — what every
// unambiguous character of a read encodes to.
func singleState(code uint32) bool { return code&(code-1) == 0 && code != 0 }

// UpdateCLVGeneric is the unspecialized reference kernel: one childVector
// loop for every state count and operand kind. The dispatch layer in
// kernels.go is property-tested to reproduce its results bit-for-bit; it is
// exported so benchmarks and tests can compare against it.
func (p *Partition) UpdateCLVGeneric(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64) {
	p.updateCLVGenericRange(dst, dstScale, a, b, pa, pb, 0, p.patterns)
}

// updateCLVGenericRange is the generic kernel over patterns [lo, hi).
func (p *Partition) updateCLVGenericRange(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, lo, hi int) {
	S, R := p.states, p.nrates
	var xa, xb [20]float64
	for pat := lo; pat < hi; pat++ {
		base := pat * R * S
		allSmall := true
		for r := 0; r < R; r++ {
			off := base + r*S
			childVector(xa[:S], S, pa[r*S*S:(r+1)*S*S], a, off, tipCodeAt(a, pat))
			childVector(xb[:S], S, pb[r*S*S:(r+1)*S*S], b, off, tipCodeAt(b, pat))
			d := dst[off : off+S]
			for s := 0; s < S; s++ {
				v := xa[s] * xb[s]
				d[s] = v
				if v > scaleThreshold {
					allSmall = false
				}
			}
		}
		finishPattern(dst, dstScale, a.Scale, b.Scale, pat, base, R*S, allSmall)
	}
}

func tipCodeAt(op Operand, pat int) uint32 {
	if op.Tip != nil {
		return op.Tip[pat]
	}
	return 0
}

// EdgeLogLikGeneric is the generic reference for EdgeLogLikScratch, exported
// for the equivalence property tests and benchmarks (see UpdateCLVGeneric).
func (p *Partition) EdgeLogLikGeneric(a, b Operand, pm []float64) float64 {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	var xb [20]float64
	total := 0.0
	for pat := 0; pat < p.patterns; pat++ {
		base := pat * R * S
		site := 0.0
		for r := 0; r < R; r++ {
			off := base + r*S
			childVector(xb[:S], S, pm[r*S*S:(r+1)*S*S], b, off, tipCodeAt(b, pat))
			sum := 0.0
			if a.Tip != nil {
				c := normTipCode(a.Tip[pat], S)
				for c != 0 {
					s := trailingZeros32(c)
					sum += pi[s] * xb[s]
					c &= c - 1
				}
			} else {
				av := a.CLV[off : off+S]
				for s := 0; s < S; s++ {
					sum += pi[s] * av[s] * xb[s]
				}
			}
			site += p.Rates.Weights[r] * sum
		}
		count := edgeScaleCount(a, b, pat)
		total += p.Comp.Weights[pat] * (math.Log(site) - float64(count)*logScaleFactor)
	}
	return total
}
