package phylo

import (
	"fmt"
	"math"
)

// This file contains the blocked (query-block × branch) placement kernels:
// PrescoreQuery / QueryLogLikScratch batched over Q queries against one
// resident prescore row or branch CLV. The query codes are laid out
// structure-of-arrays (site-major: block[site*nq+q]), so the inner loop over
// the query block reads contiguous codes and writes contiguous per-query
// accumulators while the branch-side row stays cache-resident for the whole
// block.
//
// The kernels perform, per (query, branch) cell, exactly the
// floating-point operations of their per-query counterparts in exactly the
// same site order — only branch-independent subexpressions are hoisted, which
// changes neither values nor order — so placement output is bit-identical
// regardless of the tile sizes the caller picks.

// QueryBlockLen returns the length of a site-major query-code block holding
// nq queries: nq × original alignment width.
func (p *Partition) QueryBlockLen(nq int) int { return nq * p.Comp.OriginalWidth() }

// FillQueryBlock transposes the given queries (each OriginalWidth codes,
// query-major) into dst's site-major layout: dst[site*len(queries)+q] =
// queries[q][site]. dst must have QueryBlockLen(len(queries)) entries.
func (p *Partition) FillQueryBlock(dst []uint32, queries [][]uint32) {
	nq := len(queries)
	width := p.Comp.OriginalWidth()
	if len(dst) < nq*width {
		panic(fmt.Sprintf("phylo: query block has %d entries, want %d", len(dst), nq*width))
	}
	for q, codes := range queries {
		if len(codes) != width {
			panic(fmt.Sprintf("phylo: query %d has %d sites, alignment has %d", q, len(codes), width))
		}
		for site, c := range codes {
			dst[site*nq+q] = c
		}
	}
}

// PrescoreQueryBlock evaluates nq queries (site-major code block, see
// FillQueryBlock) against one prescore row in a single pass over the sites,
// writing each query's score to out[q]. out[q] is bit-identical to
// PrescoreQuery(row, bscale, query q, skipGaps): the per-cell operations and
// their site order are exactly the per-query kernel's.
func (p *Partition) PrescoreQueryBlock(row []float64, bscale []int32, block []uint32, nq int, skipGaps bool, out []float64) {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	checkQueryBlock(p, block, nq, out)
	out = out[:nq]
	for q := range out {
		out[q] = 0
	}
	var memo [32]float64 // site terms by single-state code; valid where have is set
	for site, pat := range p.Comp.SiteToPattern {
		rs := row[pat*S : pat*S+S]
		pen := float64(bscale[pat]) * logScaleFactor
		codes := block[site*nq : site*nq+nq]
		have := uint32(0)
		for q, code := range codes {
			if skipGaps && code == gap {
				continue
			}
			single := singleState(code)
			if single && have&code != 0 {
				out[q] += memo[trailingZeros32(code)]
				continue
			}
			sum := 0.0
			c := code
			for c != 0 {
				sp := trailingZeros32(c)
				c &= c - 1
				sum += rs[sp]
			}
			term := math.Log(sum) - pen
			if single {
				have |= code
				memo[trailingZeros32(code)] = term
			}
			out[q] += term
		}
	}
}

// QueryLogLikBlockScratch evaluates nq queries (site-major code block)
// against one branch CLV in a single pass over the sites, writing each
// query's log-likelihood to out[q]. The π-folded pendant matrices are built
// once per call (not once per query). out[q] is bit-identical to
// QueryLogLikScratch(bclv, bscale, query q, ppend, skipGaps, sc).
func (p *Partition) QueryLogLikBlockScratch(bclv []float64, bscale []int32, block []uint32, nq int, ppend []float64, skipGaps bool, sc *Scratch, out []float64) {
	S, R := p.states, p.nrates
	gap := p.Comp.Alphabet.GapMask()
	checkQueryBlock(p, block, nq, out)
	out = out[:nq]
	piP := foldPendant(p, ppend, sc)
	for q := range out {
		out[q] = 0
	}
	var memo [32]float64 // site terms by single-state code; valid where have is set
	for site, pat := range p.Comp.SiteToPattern {
		base := pat * R * S
		pen := float64(bscale[pat]) * logScaleFactor
		codes := block[site*nq : site*nq+nq]
		have := uint32(0)
		for q, code := range codes {
			if skipGaps && code == gap {
				continue
			}
			single := singleState(code)
			if single && have&code != 0 {
				out[q] += memo[trailingZeros32(code)]
				continue
			}
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
			term := math.Log(site64) - pen
			if single {
				have |= code
				memo[trailingZeros32(code)] = term
			}
			out[q] += term
		}
	}
}

// foldPendant builds the π-folded pendant view piP[r][s'][s] = π_s·P^r_ss'
// into the scratch, exactly as QueryLogLikScratch does per query.
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

func checkQueryBlock(p *Partition, block []uint32, nq int, out []float64) {
	if len(block) < p.QueryBlockLen(nq) {
		panic(fmt.Sprintf("phylo: query block has %d entries, want %d", len(block), p.QueryBlockLen(nq)))
	}
	if len(out) < nq {
		panic(fmt.Sprintf("phylo: block output has %d entries, want %d", len(out), nq))
	}
}

// QueryBlockCodes returns the reusable site-major query-code buffer with at
// least n entries, growing it on first use.
func (s *Scratch) QueryBlockCodes(n int) []uint32 {
	if cap(s.blkCodes) < n {
		s.blkCodes = make([]uint32, n)
	}
	return s.blkCodes[:n]
}

// BlockOut returns the reusable per-query block accumulator with at least n
// entries, growing it on first use.
func (s *Scratch) BlockOut(n int) []float64 {
	s.blkOut = grow(s.blkOut, n)
	return s.blkOut
}
