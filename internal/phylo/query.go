package phylo

import (
	"fmt"
	"math"
)

// This file contains the placement-specific kernels: scoring a query
// sequence against an insertion-point CLV ("branch CLV"), and the
// pre-placement lookup-table rows that memoize the branch-side constants
// (EPA-NG's ≈15× pre-scoring speedup, the structure whose memory footprint
// causes the runtime cliff in the paper's Fig. 3).

// QueryLogLik returns the log-likelihood of placing a query on a branch,
// given the branch's insertion-point CLV (pattern-indexed), its scale
// counters, the query's per-ORIGINAL-site state codes, and pendant-branch
// transition matrices ppend:
//
//	ℓ = Σ_site log Σ_r f_r Σ_s π_s bclv[pat(site)][r][s] (Σ_s' P^r_ss' q_site[s'])
//
// When skipGaps is true, fully ambiguous query sites are skipped (EPA-NG's
// premasking): a gap contributes the branch-independent reference-tree site
// likelihood, which shifts all branches' scores equally and therefore does
// not affect placement ranking.
func (p *Partition) QueryLogLik(bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool) float64 {
	sc := p.getScratch()
	ll := p.QueryLogLikScratch(bclv, bscale, query, ppend, skipGaps, sc)
	p.putScratch(sc)
	return ll
}

// QueryLogLikScratch is QueryLogLik with caller-provided scratch buffers —
// the allocation-free entry point for the branch-length optimization loops.
func (p *Partition) QueryLogLikScratch(bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool, sc *Scratch) float64 {
	if len(query) != p.Comp.OriginalWidth() {
		panic(fmt.Sprintf("phylo: query has %d sites, alignment has %d", len(query), p.Comp.OriginalWidth()))
	}
	// piP[r][s'][s] = π_s · P^r_ss': with this transposed, π-folded view the
	// per-site work becomes Σ_r f_r Σ_{s'∈code} Σ_s piP[r][s'][s]·bclv[s],
	// and the inner Σ_s is a dense dot product regardless of ambiguity.
	piP := foldPendant(p, ppend, sc)
	if p.states == 4 {
		return p.queryLogLik4(bclv, bscale, query, piP, skipGaps)
	}
	return p.queryLogLikGeneric(bclv, bscale, query, piP, skipGaps)
}

// queryLogLikGeneric is the any-state-count site loop of QueryLogLikScratch
// and the reference the specialized path is tested against.
func (p *Partition) queryLogLikGeneric(bclv []float64, bscale []int32, query []uint32, piP []float64, skipGaps bool) float64 {
	S, R := p.states, p.nrates
	gap := p.Comp.Alphabet.GapMask()
	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		base := pat * R * S
		site64 := 0.0
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			sum := 0.0
			c := code
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
		total += math.Log(site64) - float64(bscale[pat])*logScaleFactor
	}
	return total
}

// queryLogLik4 is the 4-state site loop: full-slice-expression loads and the
// dot product over s unrolled, in the generic loop's order (ascending set bit
// of the code, then ascending s, then ascending rate), so the result is
// bit-identical to queryLogLikGeneric for every code. Single-state codes, all
// a read has outside its gaps and the odd ambiguity, skip the bit walk.
func (p *Partition) queryLogLik4(bclv []float64, bscale []int32, query []uint32, piP []float64, skipGaps bool) float64 {
	const S = 4
	R := p.nrates
	gap := p.Comp.Alphabet.GapMask()
	weights := p.Rates.Weights[:R]
	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		base := pat * R * S
		site64 := 0.0
		if singleState(code) {
			// One state: a single π-folded row per rate, no bit walk.
			off := trailingZeros32(code) * S
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
			for r, w := range weights {
				bv := bclv[base+r*S : base+r*S+S : base+r*S+S]
				sum := 0.0
				c := code
				for c != 0 {
					sp := trailingZeros32(c)
					c &= c - 1
					row := piP[(r*S+sp)*S : (r*S+sp)*S+S : (r*S+sp)*S+S]
					sum += row[0] * bv[0]
					sum += row[1] * bv[1]
					sum += row[2] * bv[2]
					sum += row[3] * bv[3]
				}
				site64 += w * sum
			}
		}
		total += math.Log(site64) - float64(bscale[pat])*logScaleFactor
	}
	return total
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
// i.e. PrescoreQuery. Because the expression is linear in the tip vector,
// ambiguity codes are handled exactly by summing entries.
func (p *Partition) BuildPrescoreRow(dst []float64, bclv []float64, ppend []float64) {
	if len(dst) != p.PrescoreRowLen() {
		panic(fmt.Sprintf("phylo: prescore row length %d, want %d", len(dst), p.PrescoreRowLen()))
	}
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	for pat := 0; pat < p.patterns; pat++ {
		out := dst[pat*S : pat*S+S]
		for s := range out {
			out[s] = 0
		}
		base := pat * R * S
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			fr := p.Rates.Weights[r]
			pr := ppend[r*S*S : (r+1)*S*S]
			for s := 0; s < S; s++ {
				w := fr * pi[s] * bv[s]
				if w == 0 {
					continue
				}
				row := pr[s*S : s*S+S]
				for sp := 0; sp < S; sp++ {
					out[sp] += w * row[sp]
				}
			}
		}
	}
}

// PrescoreQuery evaluates a query against a prescore row built by
// BuildPrescoreRow, with the branch's scale counters. It returns exactly the
// same value as QueryLogLik for the pendant length the row was built with.
func (p *Partition) PrescoreQuery(row []float64, bscale []int32, query []uint32, skipGaps bool) float64 {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		rs := row[pat*S : pat*S+S]
		sum := 0.0
		c := code
		for c != 0 {
			sp := trailingZeros32(c)
			c &= c - 1
			sum += rs[sp]
		}
		total += math.Log(sum) - float64(bscale[pat])*logScaleFactor
	}
	return total
}
