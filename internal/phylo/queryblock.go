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
// The default kernels perform, per (query, branch) cell, exactly the
// floating-point operations of their per-query counterparts in exactly the
// same site order — only branch-independent subexpressions are hoisted, which
// changes neither values nor order — so placement output is bit-identical
// regardless of the tile sizes the caller picks. The Fast variants trade that
// invariant for speed: they accumulate a running per-site likelihood product
// and take a couple of logs per range flush instead of one log per site.
// Their flush points depend only on the cell's own data, so fast-math output
// is still deterministic and independent of tile size and thread count — it
// is just a different (documented) FP rounding than the default path.

// fastFlushLo and fastFlushHi bound the running per-query site-likelihood
// product in the fast-math kernels. When one more site would take the
// product outside these bounds, the kernel folds the bounded product and
// that site's likelihood into the log accumulator as two separate logs and
// restarts at 1. The candidate product itself is never passed to math.Log:
// site likelihoods under heavy CLV scaling can be as small as ~1e-50, so a
// single multiply from just inside the bound can overshoot the entire
// denormal range — the product would reach math.Log with most (or all) of
// its mantissa bits gone, biasing the score by several log units per flush
// or collapsing it to -Inf outright. Flushing the two well-conditioned
// factors instead keeps every log argument either a normal float64 or an
// exact input value (a true zero site likelihood still yields -Inf, exactly
// as the default kernel's per-site log does).
const (
	fastFlushLo = 1e-280
	fastFlushHi = 1e280
)

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

// PrescoreQueryBlockFast is PrescoreQueryBlock with fast-math accumulation:
// per query it multiplies the per-site likelihoods into a running product and
// folds the product into the log accumulator only when it approaches the
// float64 range limits, replacing one log per site with one log per flush.
// The result differs from the default kernel only in FP rounding; it is
// deterministic and tile/thread independent.
func (p *Partition) PrescoreQueryBlockFast(row []float64, bscale []int32, block []uint32, nq int, skipGaps bool, sc *Scratch, out []float64) {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	checkQueryBlock(p, block, nq, out)
	out = out[:nq]
	sc.blkProd = grow(sc.blkProd, nq)
	sc.blkPen = grow(sc.blkPen, nq)
	prod, pen := sc.blkProd, sc.blkPen
	for q := range out {
		out[q] = 0
		prod[q] = 1
		pen[q] = 0
	}
	for site, pat := range p.Comp.SiteToPattern {
		rs := row[pat*S : pat*S+S]
		bsc := float64(bscale[pat])
		codes := block[site*nq : site*nq+nq]
		for q, code := range codes {
			if skipGaps && code == gap {
				continue
			}
			sum := 0.0
			c := code
			for c != 0 {
				sp := trailingZeros32(c)
				c &= c - 1
				sum += rs[sp]
			}
			pr := prod[q] * sum
			if pr < fastFlushLo || pr > fastFlushHi {
				out[q] += math.Log(prod[q]) + math.Log(sum)
				pr = 1
			}
			prod[q] = pr
			pen[q] += bsc
		}
	}
	// Scale-counter penalties are integers summed exactly in float64; applying
	// the log-scale factor once at the end is exact up to one rounding.
	for q := range out {
		out[q] += math.Log(prod[q]) - pen[q]*logScaleFactor
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

// QueryLogLikBlockFastScratch is QueryLogLikBlockScratch with the fast-math
// product accumulation of PrescoreQueryBlockFast.
func (p *Partition) QueryLogLikBlockFastScratch(bclv []float64, bscale []int32, block []uint32, nq int, ppend []float64, skipGaps bool, sc *Scratch, out []float64) {
	S, R := p.states, p.nrates
	gap := p.Comp.Alphabet.GapMask()
	checkQueryBlock(p, block, nq, out)
	out = out[:nq]
	piP := foldPendant(p, ppend, sc)
	sc.blkProd = grow(sc.blkProd, nq)
	sc.blkPen = grow(sc.blkPen, nq)
	prod, pen := sc.blkProd, sc.blkPen
	for q := range out {
		out[q] = 0
		prod[q] = 1
		pen[q] = 0
	}
	for site, pat := range p.Comp.SiteToPattern {
		base := pat * R * S
		bsc := float64(bscale[pat])
		codes := block[site*nq : site*nq+nq]
		for q, code := range codes {
			if skipGaps && code == gap {
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
			pr := prod[q] * site64
			if pr < fastFlushLo || pr > fastFlushHi {
				out[q] += math.Log(prod[q]) + math.Log(site64)
				pr = 1
			}
			prod[q] = pr
			pen[q] += bsc
		}
	}
	for q := range out {
		out[q] += math.Log(prod[q]) - pen[q]*logScaleFactor
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
