package phylo

import (
	"fmt"
	"math"

	"phylomem/internal/numeric"
)

// This file contains the placement-specific kernels: scoring a query
// sequence against an insertion-point CLV ("branch CLV"), and the
// pre-placement lookup-table rows that memoize the branch-side constants
// (EPA-NG's ≈15× pre-scoring speedup, the structure whose memory footprint
// causes the runtime cliff in the paper's Fig. 3).

// QueryLogLikScratch returns the log-likelihood of placing a query on a
// branch, given the branch's insertion-point CLV (pattern-indexed), its scale
// counters, the query's per-ORIGINAL-site state codes, and pendant-branch
// transition matrices ppend:
//
//	ℓ = Σ_site log Σ_r f_r Σ_s π_s bclv[pat(site)][r][s] (Σ_s' P^r_ss' q_site[s'])
//
// When skipGaps is true, fully ambiguous query sites are skipped (EPA-NG's
// premasking): a gap contributes the branch-independent reference-tree site
// likelihood, which shifts all branches' scores equally and therefore does
// not affect placement ranking. It builds the query's covered-site list in sc
// and walks it once; a caller scoring one query many times attaches it
// instead (Attachment), which builds the list once.
func (p *Partition) QueryLogLikScratch(bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool, sc *Scratch) float64 {
	p.queryPatternRuns(query, skipGaps, sc)
	return p.coveredLogLik(bclv, bscale, ppend, sc)
}

// coveredSite is one site of the query whose covered-site list a Scratch
// holds (see queryPatternRuns): its alignment pattern, its code and, for a
// single-state code — all a read has outside the odd ambiguity — the offset
// state×S of that state's row in a π-folded pendant matrix (−1 otherwise).
type coveredSite struct {
	pat  int32
	off  int32
	code uint32
}

// coveredLogLik is the allocation-free evaluation behind every Attachment:
// QueryLogLikScratch of the query whose covered-site list sc holds, in the
// gap mode the list was built with.
func (p *Partition) coveredLogLik(bclv []float64, bscale []int32, ppend []float64, sc *Scratch) float64 {
	piP := foldPendant(p, ppend, sc)
	if useAVX && p.nrates == 4 && (p.states == 4 || p.states == 20) {
		return p.queryLogLikAVX(bclv, bscale, sc.cover, piP, sc)
	}
	switch p.states {
	case 4:
		return p.queryLogLik4(bclv, bscale, sc.cover, piP)
	case 20:
		return p.queryLogLik20(bclv, bscale, sc.cover, piP)
	}
	return p.queryLogLikGeneric(bclv, bscale, sc.cover, piP)
}

// foldPendant builds the π-folded pendant view piP[r][s'][s] = π_s·P^r_ss'
// into the scratch: with it the per-site work becomes
// Σ_r f_r Σ_{s'∈code} Σ_s piP[r][s'][s]·bclv[s], and the inner Σ_s is a dense
// dot product regardless of ambiguity.
func foldPendant(p *Partition, ppend []float64, sc *Scratch) []float64 {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	sc.piP = grow(sc.piP, R*S*S)
	piP := sc.piP
	for r := 0; r < R; r++ {
		for s := 0; s < S; s++ {
			for sp := 0; sp < S; sp++ {
				piP[(r*S+sp)*S+s] = pi[s] * ppend[(r*S+s)*S+sp]
			}
		}
	}
	return piP
}

// logProduct is the log of a product of site likelihoods, kept as an exact
// mantissa/exponent pair so that a whole evaluation takes one math.Log
// instead of one per covered site (DESIGN.md "Kernel specialization"). The
// product is m·2^(e−511). Normalised, m is in [1, 2)·2^511: its float64
// exponent moves into e, which is exact. A site's scale count c (it was
// multiplied by scaleFactor = 2^256 c times) subtracts 256·c from e, exactly
// too. mul normalises lazily, only once m leaves [2^53, 2^512): for m in
// that window and a site in (0, 2^512) — the smallest subnormal included —
// the product is a normal number, so its rounding depends only on the two
// significands, which are those of the eagerly normalised fold. The bits are
// therefore the same as normalising after every site; each site costs
// exactly one rounding, the multiply, and nothing underflows.
type logProduct struct {
	m float64
	e int64
}

// The biased exponent field of a float64, and its value for [1, 2)·2^511.
const (
	expField = 0x7ff << 52
	expHigh  = (1023 + 511) << 52
)

// newLogProduct returns the empty product.
func newLogProduct() logProduct { return logProduct{m: 0x1p511} }

// mul multiplies one site likelihood with scale count c into the product. A
// product that is zero, infinite or NaN stays so, as it would in a sum of
// logs; its log ignores e.
func (a *logProduct) mul(site float64, c int32) {
	a.m *= site
	a.e -= 256 * int64(c)
	if !(a.m >= 0x1p53 && a.m < 0x1p512) {
		a.normalize()
	}
}

// normalize moves a positive normal m's exponent into e, leaving m in
// [1, 2)·2^511; any other m is left as it is.
func (a *logProduct) normalize() {
	bits := math.Float64bits(a.m)
	if f := bits >> 52; f-1 < 0x7fe { // positive and normal
		a.e += int64(f) - (1023 + 511)
		a.m = math.Float64frombits(bits&^expField | expHigh)
	}
}

// log returns the natural log of the product.
func (a logProduct) log() float64 {
	a.normalize()
	return math.Log(a.m*0x1p-511) + float64(a.e)*math.Ln2
}

// queryLogLikGeneric is the any-state-count site loop of coveredLogLik.
func (p *Partition) queryLogLikGeneric(bclv []float64, bscale []int32, cover []coveredSite, piP []float64) float64 {
	S, R := p.states, p.nrates
	acc := newLogProduct()
	for _, cs := range cover {
		base := int(cs.pat) * R * S
		site64 := 0.0
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			sum := 0.0
			c := cs.code
			for c != 0 {
				sp := trailingZeros32(c)
				c &= c - 1
				row := piP[(r*S+sp)*S : (r*S+sp)*S+S]
				for s := 0; s < S; s++ {
					sum += row[s] * bv[s]
				}
			}
			site64 += p.Rates.Weights[r] * sum
		}
		acc.mul(site64, bscale[cs.pat])
	}
	return acc.log()
}

// queryLogLik4 is the 4-state site loop: full-slice-expression loads and the
// dot product over s unrolled, in the generic loop's order (ascending set bit
// of the code, then ascending s, then ascending rate), so the result is
// bit-identical to queryLogLikGeneric for every code. Single-state codes skip
// the bit walk.
func (p *Partition) queryLogLik4(bclv []float64, bscale []int32, cover []coveredSite, piP []float64) float64 {
	const S = 4
	R := p.nrates
	weights := p.Rates.Weights[:R]
	acc := newLogProduct()
	for _, cs := range cover {
		base := int(cs.pat) * R * S
		site64 := 0.0
		if cs.off >= 0 && R == 4 {
			// One state under Γ4, the shape of nearly every cell of an NT run:
			// the four rates' dot products are independent chains, so they are
			// written side by side for the CPU to overlap — each in the loop's
			// order, then combined in rate order (BenchmarkQueryLogLik4Rates
			// isolates the step against the loop below).
			off := int(cs.off)
			bv := bclv[base : base+16 : base+16]
			r0 := piP[off : off+4 : off+4]
			r1 := piP[16+off : 20+off : 20+off]
			r2 := piP[32+off : 36+off : 36+off]
			r3 := piP[48+off : 52+off : 52+off]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			s0 += r0[0] * bv[0]
			s1 += r1[0] * bv[4]
			s2 += r2[0] * bv[8]
			s3 += r3[0] * bv[12]
			s0 += r0[1] * bv[1]
			s1 += r1[1] * bv[5]
			s2 += r2[1] * bv[9]
			s3 += r3[1] * bv[13]
			s0 += r0[2] * bv[2]
			s1 += r1[2] * bv[6]
			s2 += r2[2] * bv[10]
			s3 += r3[2] * bv[14]
			s0 += r0[3] * bv[3]
			s1 += r1[3] * bv[7]
			s2 += r2[3] * bv[11]
			s3 += r3[3] * bv[15]
			site64 += weights[0] * s0
			site64 += weights[1] * s1
			site64 += weights[2] * s2
			site64 += weights[3] * s3
		} else if cs.off >= 0 {
			// One state: a single π-folded row per rate, no bit walk.
			off := int(cs.off)
			for r, w := range weights {
				bv := bclv[base+r*S : base+r*S+S : base+r*S+S]
				row := piP[r*S*S+off : r*S*S+off+S : r*S*S+off+S]
				sum := 0.0
				sum += row[0] * bv[0]
				sum += row[1] * bv[1]
				sum += row[2] * bv[2]
				sum += row[3] * bv[3]
				site64 += w * sum
			}
		} else {
			site64 = ambiguousSite4(bclv[base:], cs.code, piP, weights)
		}
		acc.mul(site64, bscale[cs.pat])
	}
	return acc.log()
}

// ambiguousSite4 is one site's likelihood at 4 states by the bit walk, for
// any code: bv starts at the site's pattern block, the rates' weights are
// weights.
func ambiguousSite4(bv []float64, code uint32, piP, weights []float64) float64 {
	const S = 4
	site := 0.0
	for r, w := range weights {
		b := bv[r*S : r*S+S : r*S+S]
		sum := 0.0
		for c := code; c != 0; c &= c - 1 {
			sp := trailingZeros32(c)
			row := piP[(r*S+sp)*S : (r*S+sp)*S+S : (r*S+sp)*S+S]
			sum += row[0] * b[0]
			sum += row[1] * b[1]
			sum += row[2] * b[2]
			sum += row[3] * b[3]
		}
		site += w * sum
	}
	return site
}

// queryLogLik20 is the 20-state site loop: every row and CLV block is read
// through a slice of constant length 20, in the generic loop's order, so the
// result is bit-identical to queryLogLikGeneric for every code. A
// single-state site under Γ4 runs its four rates' dot products side by side,
// as queryLogLik4 does, and combines them in rate order; every other site
// takes the bit walk of ambiguousSite20 (one bit for a single state).
func (p *Partition) queryLogLik20(bclv []float64, bscale []int32, cover []coveredSite, piP []float64) float64 {
	const S = 20
	R := p.nrates
	weights := p.Rates.Weights[:R]
	acc := newLogProduct()
	for _, cs := range cover {
		base := int(cs.pat) * R * S
		site64 := 0.0
		if cs.off >= 0 && R == 4 {
			off := int(cs.off)
			b0 := bclv[base : base+S : base+S]
			b1 := bclv[base+S : base+2*S : base+2*S]
			b2 := bclv[base+2*S : base+3*S : base+3*S]
			b3 := bclv[base+3*S : base+4*S : base+4*S]
			r0 := piP[off : off+S : off+S]
			r1 := piP[S*S+off : S*S+off+S : S*S+off+S]
			r2 := piP[2*S*S+off : 2*S*S+off+S : 2*S*S+off+S]
			r3 := piP[3*S*S+off : 3*S*S+off+S : 3*S*S+off+S]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for k := 0; k < S; k++ {
				s0 += r0[k] * b0[k]
				s1 += r1[k] * b1[k]
				s2 += r2[k] * b2[k]
				s3 += r3[k] * b3[k]
			}
			site64 += weights[0] * s0
			site64 += weights[1] * s1
			site64 += weights[2] * s2
			site64 += weights[3] * s3
		} else {
			site64 = ambiguousSite20(bclv[base:], cs.code, piP, weights)
		}
		acc.mul(site64, bscale[cs.pat])
	}
	return acc.log()
}

// ambiguousSite20 is one site's likelihood at 20 states by the bit walk, for
// any code: bv starts at the site's pattern block, the rates' weights are
// weights.
func ambiguousSite20(bv []float64, code uint32, piP, weights []float64) float64 {
	const S = 20
	site := 0.0
	for r, w := range weights {
		b := bv[r*S : r*S+S : r*S+S]
		sum := 0.0
		for c := code; c != 0; c &= c - 1 {
			sp := trailingZeros32(c)
			row := piP[(r*S+sp)*S : (r*S+sp)*S+S : (r*S+sp)*S+S]
			for k := 0; k < S; k++ {
				sum += row[k] * b[k]
			}
		}
		site += w * sum
	}
	return site
}

// PrescoreRowLen returns the number of float64 values in one pre-placement
// lookup-table row (one branch): patterns × states.
func (p *Partition) PrescoreRowLen() int { return p.patterns * p.states }

// BuildPrescoreRow fills dst (PrescoreRowLen values) with the branch-side
// constants of the placement likelihood under pendant matrices ppend:
//
//	dst[pat·S+s'] = Σ_r f_r Σ_s π_s bclv[pat][r][s] P^r_ss'
//
// A query's pre-placement score is then Σ_site log Σ_{s'∈code} dst[pat·S+s'],
// less the sites' scaling penalties, i.e. PrescoreQueryBlock. Because the
// expression is linear in the tip vector, ambiguity codes are handled exactly
// by summing entries (in the log domain, see PrescoreQueryBlock).
func (p *Partition) BuildPrescoreRow(dst []float64, bclv []float64, ppend []float64) {
	if len(dst) != p.PrescoreRowLen() {
		panic(fmt.Sprintf("phylo: prescore row length %d, want %d", len(dst), p.PrescoreRowLen()))
	}
	p.prescoreRow(dst, bclv, ppend, nil)
}

// prescoreRow is the one formula of a prescore row: it fills the entries of
// every pattern pat with want[pat] nonzero (all of them when want is nil) and
// leaves the others alone. Each pattern is one numeric.CombineRows over
// ppend's R·S rows with coefficients f_r·π_s·bclv[pat][r][s]. A zero
// coefficient adds +0 to a chain that started at +0 (ppend is finite and
// ≥ 0), which changes no partial sum, so it needs no skip. Four states under
// four rates take prescoreRow4, the same chains without the generic call.
func (p *Partition) prescoreRow(dst, bclv, ppend []float64, want []uint32) {
	if p.states == 4 && p.nrates == 4 {
		p.prescoreRow4(dst, bclv, ppend, want)
		return
	}
	p.prescoreRowCombine(dst, bclv, ppend, want)
}

// prescoreRowCombine is prescoreRow for any state and rate count.
func (p *Partition) prescoreRowCombine(dst, bclv, ppend []float64, want []uint32) {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	var coefArr [4 * 20]float64 // Γ4 at 20 states; more rates allocate
	coef := coefArr[:]
	if R*S > len(coef) {
		coef = make([]float64, R*S)
	}
	coef, ppend = coef[:R*S], ppend[:R*S*S]
	for pat := 0; pat < p.patterns; pat++ {
		if want != nil && want[pat] == 0 {
			continue
		}
		bv := bclv[pat*R*S : (pat+1)*R*S]
		for r := 0; r < R; r++ {
			fr := p.Rates.Weights[r]
			for s := 0; s < S; s++ {
				coef[r*S+s] = fr * pi[s] * bv[r*S+s]
			}
		}
		numeric.CombineRows(dst[pat*S:pat*S+S], ppend, coef)
	}
}

// prescoreRow4 is prescoreRow at four states and four rates, bit-equal to
// prescoreRowCombine: each of a pattern's four entries is one chain from +0
// over the 16 rows k = 4r+s in ascending order, adding the coefficient
// (f_r·π_s)·bclv[pat][k] times row k of ppend, as numeric.CombineRows' Go
// path does for a 4-wide row. The product f_r·π_s is hoisted out of the
// pattern loop; it is the same first rounding the generic coefficient makes.
func (p *Partition) prescoreRow4(dst, bclv, ppend []float64, want []uint32) {
	pi := p.Model.Freqs()
	var wpi [16]float64
	for k := range wpi {
		wpi[k] = p.Rates.Weights[k/4] * pi[k%4]
	}
	rows := (*[64]float64)(ppend[:64])
	for pat := 0; pat < p.patterns; pat++ {
		if want != nil && want[pat] == 0 {
			continue
		}
		bv := (*[16]float64)(bclv[pat*16 : pat*16+16])
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for k := 0; k < 16; k++ {
			c := wpi[k] * bv[k]
			s0 += c * rows[k*4]
			s1 += c * rows[k*4+1]
			s2 += c * rows[k*4+2]
			s3 += c * rows[k*4+3]
		}
		d := (*[4]float64)(dst[pat*4 : pat*4+4])
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
}
