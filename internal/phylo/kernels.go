package phylo

// kernels.go is the kernel-dispatch layer: state-count-specialized
// Felsenstein pruning and edge log-likelihood kernels, plus the reusable
// Scratch buffers that make the hot loops allocation-free.
//
// Dispatch rules (see DESIGN.md "Kernel specialization"):
//
//   - 4 states, tip×tip:    per-rate code-pair product LUT over the pairs of
//     codes the leaves use — one multiply-free table lookup per pattern (the
//     libpll cherry-tip trick).
//   - 4 states, tip×inner:  per-rate tip LUT over the codes the leaves use
//     for the tip side, fully unrolled 4×4 mat-vec for the inner side.
//   - 4 states, inner×inner: fully unrolled 4×4 mat-vec on both sides.
//   - 20 states:            per rate, a table of tip child vectors (P·code
//     for each code the partition's leaves use, built by prepareUpdate), and
//     one numeric.CombineRows per inner child and rate, its CLV block as
//     coefficients over the transposed P.
//   - 4 or 20 states on an AVX CPU: assembly range kernels instead
//     (kernels4_amd64.s, kernels20_amd64.s, updateCLVAVX), one YMM lane per
//     state, the inner side through the rate's transposed P and the tip side
//     through its table; the Go kernels above are the path everywhere else
//     and the tests' reference.
//   - anything else:        the generic childVector loop (UpdateCLVGeneric).
//
// Every specialized path performs the same floating-point operations in the
// same order as the generic path, so results are bit-identical — the
// "results independent of memory mode" invariant rests on this. The LUTs are
// themselves computed in generic order (ascending state index), and tip×tip
// pair entries are the identical single product the generic path would form
// per pattern, just computed once per code pair. Blocking (four rates in
// queryLogLik4/queryLogLik20, four columns or vector lanes in
// numeric.CombineRows and the AVX kernels) only runs independent sums
// side by side: each output element is still one chain from +0 in the
// generic order. That holds because Go never reassociates floating-point,
// the amd64 compiler does not fuse a*b+c into an FMA and the AVX kernels
// multiply, then add; CI reruns the bitwise tests under GOAMD64=v3, the
// level at which FMA instructions become available, to keep it so.

import (
	"fmt"
	"math"
	"math/bits"

	"phylomem/internal/numeric"
	"phylomem/internal/parallel"
)

// Scratch holds the reusable per-goroutine buffers of the likelihood
// kernels: tip lookup tables, the DNA tip×tip pair-product table, and
// caller-visible P-matrix / CLV buffers for the placement hot loops.
//
// A Scratch may be used by one goroutine at a time, except that a prepared
// Scratch is read-only during UpdateCLVPooled worker fan-out. Zero
// allocation after warm-up: every buffer is grown once and reused.
type Scratch struct {
	p *Partition

	// Tip LUTs: at 4 states lut[(r*16+code)*4+s] = Σ_{s'∈code} P^r[s][s'],
	// filled for the codes the leaves use and code 15 (dnaTipLUT); at 20
	// states the tip table lut[(r*n+row)*20+s], the same sum for the code of
	// tipRow row, n = 20+len(codes.ambig) (tipTable20). Rows of other codes
	// hold whatever an earlier call left and are never read.
	lutA, lutB []float64
	// Pair LUT: pair[((r*16+ca)*16+cb)*4+s] = lutA[r,ca,s]·lutB[r,cb,s],
	// filled for the pairs of codes the leaves use.
	pair []float64
	// Transposed P matrices of the two operands (transposeP): both at 20
	// states, the inner ones at 4 states on the AVX path.
	ptA, ptB []float64
	// Which tables the last prepareUpdate call filled.
	haveLUTA, haveLUTB, havePair bool

	// π-folded pendant matrices for coveredLogLik, and under Γ4 on the AVX
	// path the same values re-laid out one rate per lane (queryLogLikAVX).
	piP, piPT []float64

	// The blocked kernel's per-query output accumulator, and the prescore row
	// TilePrescoreRow builds with the tile's per-pattern state masks (see
	// queryblock.go).
	blkOut, row []float64
	tileNeed    []uint32

	// What the current query covers (see queryPatternRuns): its covered-site
	// list, the per-pattern coverage marks and the run list derived from them.
	cover   []coveredSite
	patMark []bool
	runs    []patternRun

	// Caller-reusable buffers, grown on demand (see P and CLV).
	pbufs   [][]float64
	clvbufs [][]float64
	sclbufs [][]int32
}

// NewScratch returns an empty Scratch for this partition's dimensions.
func (p *Partition) NewScratch() *Scratch { return &Scratch{p: p} }

// P returns the i'th reusable transition-matrix buffer (PLen values),
// allocating it on first use. Distinct indices are distinct buffers.
func (s *Scratch) P(i int) []float64 {
	for len(s.pbufs) <= i {
		s.pbufs = append(s.pbufs, make([]float64, s.p.PLen()))
	}
	return s.pbufs[i]
}

// CLV returns the i'th reusable CLV buffer and its scale counters,
// allocating them on first use. Distinct indices are distinct buffers.
func (s *Scratch) CLV(i int) ([]float64, []int32) {
	for len(s.clvbufs) <= i {
		s.clvbufs = append(s.clvbufs, make([]float64, s.p.CLVLen()))
		s.sclbufs = append(s.sclbufs, make([]int32, s.p.ScaleLen()))
	}
	return s.clvbufs[i], s.sclbufs[i]
}

// transposeP returns buf, grown to len(pm), holding each rate's S×S block
// of pm transposed: out[(r*S+k)*S+s] = pm[(r*S+s)*S+k], so row k of a block
// is column k of P^r — the layout numeric.CombineRows reads.
func transposeP(buf, pm []float64, S, R int) []float64 {
	buf = grow(buf, len(pm))
	for r := 0; r < R; r++ {
		blk, out := pm[r*S*S:(r+1)*S*S], buf[r*S*S:(r+1)*S*S]
		for s := 0; s < S; s++ {
			for k := 0; k < S; k++ {
				out[k*S+s] = blk[s*S+k]
			}
		}
	}
	return buf
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prepareUpdate builds the tables updateCLVRange's fast paths read: at 20
// states both operands' transposed P matrices and a tip operand's tip table;
// at 4 states the DNA tip LUT(s) for tip operands, when both operands are
// tips the code-pair product table and, for the AVX kernels, inner
// operands' transposed P. Hoisting this out of the per-range kernel is what
// lets UpdateCLVPooled share one table set across workers.
func (p *Partition) prepareUpdate(sc *Scratch, a, b Operand, pa, pb []float64) {
	sc.haveLUTA, sc.haveLUTB, sc.havePair = false, false, false
	R := p.nrates
	if p.states == 20 {
		sc.ptA = transposeP(sc.ptA, pa, 20, R)
		sc.ptB = transposeP(sc.ptB, pb, 20, R)
		if sc.haveLUTA = a.IsTip(); sc.haveLUTA {
			sc.lutA = p.tipTable20(sc.lutA, sc.ptA)
		}
		if sc.haveLUTB = b.IsTip(); sc.haveLUTB {
			sc.lutB = p.tipTable20(sc.lutB, sc.ptB)
		}
		return
	}
	if p.states != 4 {
		return
	}
	if a.IsTip() {
		sc.lutA = grow(sc.lutA, R*16*4)
		p.dnaTipLUT(pa, sc.lutA)
		sc.haveLUTA = true
	} else if useAVX {
		sc.ptA = transposeP(sc.ptA, pa, 4, R)
	}
	if b.IsTip() {
		sc.lutB = grow(sc.lutB, R*16*4)
		p.dnaTipLUT(pb, sc.lutB)
		sc.haveLUTB = true
	} else if useAVX {
		sc.ptB = transposeP(sc.ptB, pb, 4, R)
	}
	if sc.haveLUTA && sc.haveLUTB {
		sc.pair = grow(sc.pair, R*16*16*4)
		used := p.codes.dna
		for r := 0; r < R; r++ {
			for ma := used; ma != 0; ma &= ma - 1 {
				ca := bits.TrailingZeros16(ma)
				va := sc.lutA[(r*16+ca)*4 : (r*16+ca)*4+4 : (r*16+ca)*4+4]
				for mb := used; mb != 0; mb &= mb - 1 {
					cb := bits.TrailingZeros16(mb)
					vb := sc.lutB[(r*16+cb)*4 : (r*16+cb)*4+4 : (r*16+cb)*4+4]
					out := sc.pair[((r*16+ca)*16+cb)*4 : ((r*16+ca)*16+cb)*4+4 : ((r*16+ca)*16+cb)*4+4]
					out[0] = va[0] * vb[0]
					out[1] = va[1] * vb[1]
					out[2] = va[2] * vb[2]
					out[3] = va[3] * vb[3]
				}
			}
		}
		sc.havePair = true
	}
}

// UpdateCLVScratch computes dst = (Pa·a) ⊙ (Pb·b) across all patterns and
// rate categories, with per-pattern scaling. dstScale receives the combined
// scale counters. Pa and Pb are PLen-sized transition matrix sets for the
// respective child branch lengths; sc holds the tables the specialized
// kernels read, so the call is allocation-free once sc is warm.
//
// It is the Felsenstein pruning step and the dominant cost of placement
// preprocessing; the CLV recomputations that the AMC memory/runtime
// trade-off is about are exactly repeated calls of this kernel.
func (p *Partition) UpdateCLVScratch(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, sc *Scratch) {
	p.prepareUpdate(sc, a, b, pa, pb)
	p.updateCLVRange(dst, dstScale, a, b, pa, pb, 0, p.patterns, sc)
}

// patternRun is a half-open range [Lo, Hi) of alignment patterns.
type patternRun struct{ Lo, Hi int }

// queryPatternRuns records in sc what the query covers and returns the
// patterns the placement kernels read for it, as sorted, disjoint, maximal
// runs: every pattern some non-gap site of the query maps to or, with
// skipGaps off, all of them. This is the premask of phase 2 — a CLV derived
// only over these runs (updateCLVRuns) scores the query exactly like the
// full-width CLV, because the same pass builds the covered-site list that
// coveredLogLik and coveredPendantGrid walk, and that list touches no other
// pattern; Attachment is the one owner of such a pair. It is the one place
// that tests a query's sites for gaps. The returned slice and the list live
// in sc and are valid until the next call on sc.
func (p *Partition) queryPatternRuns(query []uint32, skipGaps bool, sc *Scratch) []patternRun {
	width := p.Comp.OriginalWidth()
	if len(query) != width {
		panic(fmt.Sprintf("phylo: query has %d sites, alignment has %d", len(query), width))
	}
	if cap(sc.patMark) < p.patterns {
		sc.patMark = make([]bool, p.patterns)
	}
	if cap(sc.cover) < width {
		sc.cover = make([]coveredSite, width)
	}
	mark := sc.patMark[:p.patterns]
	clear(mark)
	cover, n := sc.cover[:width], 0
	gap := p.Comp.Alphabet.GapMask()
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		mark[pat] = true
		off := int32(-1)
		if singleState(code) {
			off = int32(trailingZeros32(code) * p.states)
		}
		cover[n] = coveredSite{pat: int32(pat), off: off, code: code}
		n++
	}
	sc.cover = cover[:n]
	runs := sc.runs[:0]
	for pat := 0; pat < len(mark); pat++ {
		if !mark[pat] {
			continue
		}
		lo := pat
		for pat < len(mark) && mark[pat] {
			pat++
		}
		runs = append(runs, patternRun{lo, pat})
	}
	sc.runs = runs
	return runs
}

// updateCLVRuns is UpdateCLVScratch restricted to the patterns in runs: the
// tables are prepared once, then each run goes through the same range kernel
// the full update uses, so dst and dstScale hold bit-identical values on the
// covered patterns and keep whatever they held on all others. It returns the
// number of patterns updated.
func (p *Partition) updateCLVRuns(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, runs []patternRun, sc *Scratch) int {
	p.prepareUpdate(sc, a, b, pa, pb)
	n := 0
	for _, run := range runs {
		p.updateCLVRange(dst, dstScale, a, b, pa, pb, run.Lo, run.Hi, sc)
		n += run.Hi - run.Lo
	}
	return n
}

// UpdateCLVPooled is UpdateCLVScratch with the pattern range fanned out over
// a persistent worker pool — the paper's experimental across-site
// parallelization of branch-block precomputation (Fig. 7). The LUTs are
// built once here; the pool workers share them read-only. A nil pool (or one
// with a single worker, or too few patterns to split) runs serially. Workers
// write disjoint pattern ranges of dst, so the result is bit-identical to
// the serial path regardless of the pool size.
func (p *Partition) UpdateCLVPooled(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, pool *parallel.Pool, sc *Scratch) {
	p.prepareUpdate(sc, a, b, pa, pb)
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	if workers <= 1 || p.patterns < 4*workers {
		p.updateCLVRange(dst, dstScale, a, b, pa, pb, 0, p.patterns, sc)
		return
	}
	grain := (p.patterns + workers - 1) / workers
	pool.Run(p.patterns, grain, func(lo, hi, _ int) {
		p.updateCLVRange(dst, dstScale, a, b, pa, pb, lo, hi, sc)
	})
}

// UpdateCLVGo is UpdateCLVScratch on the Go kernels alone, the path of every
// CPU without AVX. Like UpdateCLVGeneric it is exported so benchmarks can set
// it beside the dispatched path.
func (p *Partition) UpdateCLVGo(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, sc *Scratch) {
	p.prepareUpdate(sc, a, b, pa, pb)
	p.updateCLVRangeGo(dst, dstScale, a, b, pa, pb, 0, p.patterns, sc)
}

// updateCLVRange dispatches the pruning kernel over patterns [lo, hi). sc
// must have been prepared for (a, b, pa, pb) by prepareUpdate.
func (p *Partition) updateCLVRange(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, lo, hi int, sc *Scratch) {
	if useAVX && (p.states == 4 || p.states == 20) {
		p.updateCLVAVX(dst, dstScale, a, b, lo, hi, sc)
		return
	}
	p.updateCLVRangeGo(dst, dstScale, a, b, pa, pb, lo, hi, sc)
}

// updateCLVRangeGo is updateCLVRange without the AVX kernels.
func (p *Partition) updateCLVRangeGo(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, lo, hi int, sc *Scratch) {
	switch {
	case p.states == 4 && sc.havePair:
		p.updateCLV4TipTip(dst, dstScale, a, b, lo, hi, sc.pair)
	case p.states == 4 && sc.haveLUTA:
		p.updateCLV4TipInner(dst, dstScale, a, b, pb, lo, hi, sc.lutA)
	case p.states == 4 && sc.haveLUTB:
		p.updateCLV4TipInner(dst, dstScale, b, a, pa, lo, hi, sc.lutB)
	case p.states == 4:
		p.updateCLV4InnerInner(dst, dstScale, a, b, pa, pb, lo, hi)
	case p.states == 20:
		p.updateCLV20(dst, dstScale, a, b, lo, hi, sc)
	default:
		p.updateCLVGenericRange(dst, dstScale, a, b, pa, pb, lo, hi)
	}
}

// finishPattern combines child scale counters, applies numerical rescaling
// when every entry of the pattern block is small, and stores the counter.
// Identical across all kernels — it is the generic path's epilogue verbatim.
func finishPattern(dst []float64, dstScale []int32, aScale, bScale []int32, pat, base, blockLen int, allSmall bool) {
	var count int32
	if aScale != nil {
		count += aScale[pat]
	}
	if bScale != nil {
		count += bScale[pat]
	}
	if allSmall {
		blk := dst[base : base+blockLen]
		for i := range blk {
			blk[i] *= scaleFactor
		}
		count++
	}
	dstScale[pat] = count
}

// updateCLV4TipTip is the DNA cherry kernel: both children are tips, so the
// product (Pa·a)⊙(Pb·b) depends only on the code pair and the rate —
// one table lookup per pattern per rate, no multiplies in the pattern loop.
func (p *Partition) updateCLV4TipTip(dst []float64, dstScale []int32, a, b Operand, lo, hi int, pair []float64) {
	const S = 4
	R := p.nrates
	for pat := lo; pat < hi; pat++ {
		base := pat * R * S
		ca, cb := int(a.Tip[pat]), int(b.Tip[pat])
		allSmall := true
		for r := 0; r < R; r++ {
			off := base + r*S
			row := pair[((r*16+ca)*16+cb)*4 : ((r*16+ca)*16+cb)*4+4 : ((r*16+ca)*16+cb)*4+4]
			d := dst[off : off+S : off+S]
			v0, v1, v2, v3 := row[0], row[1], row[2], row[3]
			d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			if v0 > scaleThreshold {
				allSmall = false
			}
			if v1 > scaleThreshold {
				allSmall = false
			}
			if v2 > scaleThreshold {
				allSmall = false
			}
			if v3 > scaleThreshold {
				allSmall = false
			}
		}
		finishPattern(dst, dstScale, a.Scale, b.Scale, pat, base, R*S, allSmall)
	}
}

// updateCLV4TipInner handles DNA tip×inner: the tip side (t, with its
// precomputed LUT) and the inner side (o, with transition matrices po). The
// elementwise product is commutative, so both operand orders funnel here;
// the scale-counter combination is symmetric as well.
func (p *Partition) updateCLV4TipInner(dst []float64, dstScale []int32, t, o Operand, po []float64, lo, hi int, lut []float64) {
	const S = 4
	R := p.nrates
	for pat := lo; pat < hi; pat++ {
		base := pat * R * S
		code := int(t.Tip[pat])
		allSmall := true
		for r := 0; r < R; r++ {
			off := base + r*S
			xt := lut[(r*16+code)*4 : (r*16+code)*4+4 : (r*16+code)*4+4]
			pr := po[r*S*S : (r+1)*S*S : (r+1)*S*S]
			cv := o.CLV[off : off+S : off+S]
			c0, c1, c2, c3 := cv[0], cv[1], cv[2], cv[3]
			x0 := 0.0
			x0 += pr[0] * c0
			x0 += pr[1] * c1
			x0 += pr[2] * c2
			x0 += pr[3] * c3
			x1 := 0.0
			x1 += pr[4] * c0
			x1 += pr[5] * c1
			x1 += pr[6] * c2
			x1 += pr[7] * c3
			x2 := 0.0
			x2 += pr[8] * c0
			x2 += pr[9] * c1
			x2 += pr[10] * c2
			x2 += pr[11] * c3
			x3 := 0.0
			x3 += pr[12] * c0
			x3 += pr[13] * c1
			x3 += pr[14] * c2
			x3 += pr[15] * c3
			d := dst[off : off+S : off+S]
			v0 := xt[0] * x0
			v1 := xt[1] * x1
			v2 := xt[2] * x2
			v3 := xt[3] * x3
			d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			if v0 > scaleThreshold {
				allSmall = false
			}
			if v1 > scaleThreshold {
				allSmall = false
			}
			if v2 > scaleThreshold {
				allSmall = false
			}
			if v3 > scaleThreshold {
				allSmall = false
			}
		}
		finishPattern(dst, dstScale, t.Scale, o.Scale, pat, base, R*S, allSmall)
	}
}

// updateCLV4InnerInner is the fully unrolled 4-state inner×inner kernel.
func (p *Partition) updateCLV4InnerInner(dst []float64, dstScale []int32, a, b Operand, pa, pb []float64, lo, hi int) {
	const S = 4
	R := p.nrates
	for pat := lo; pat < hi; pat++ {
		base := pat * R * S
		allSmall := true
		for r := 0; r < R; r++ {
			off := base + r*S
			pra := pa[r*S*S : (r+1)*S*S : (r+1)*S*S]
			prb := pb[r*S*S : (r+1)*S*S : (r+1)*S*S]
			av := a.CLV[off : off+S : off+S]
			bv := b.CLV[off : off+S : off+S]
			a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
			b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
			xa0 := 0.0
			xa0 += pra[0] * a0
			xa0 += pra[1] * a1
			xa0 += pra[2] * a2
			xa0 += pra[3] * a3
			xa1 := 0.0
			xa1 += pra[4] * a0
			xa1 += pra[5] * a1
			xa1 += pra[6] * a2
			xa1 += pra[7] * a3
			xa2 := 0.0
			xa2 += pra[8] * a0
			xa2 += pra[9] * a1
			xa2 += pra[10] * a2
			xa2 += pra[11] * a3
			xa3 := 0.0
			xa3 += pra[12] * a0
			xa3 += pra[13] * a1
			xa3 += pra[14] * a2
			xa3 += pra[15] * a3
			xb0 := 0.0
			xb0 += prb[0] * b0
			xb0 += prb[1] * b1
			xb0 += prb[2] * b2
			xb0 += prb[3] * b3
			xb1 := 0.0
			xb1 += prb[4] * b0
			xb1 += prb[5] * b1
			xb1 += prb[6] * b2
			xb1 += prb[7] * b3
			xb2 := 0.0
			xb2 += prb[8] * b0
			xb2 += prb[9] * b1
			xb2 += prb[10] * b2
			xb2 += prb[11] * b3
			xb3 := 0.0
			xb3 += prb[12] * b0
			xb3 += prb[13] * b1
			xb3 += prb[14] * b2
			xb3 += prb[15] * b3
			d := dst[off : off+S : off+S]
			v0 := xa0 * xb0
			v1 := xa1 * xb1
			v2 := xa2 * xb2
			v3 := xa3 * xb3
			d[0], d[1], d[2], d[3] = v0, v1, v2, v3
			if v0 > scaleThreshold {
				allSmall = false
			}
			if v1 > scaleThreshold {
				allSmall = false
			}
			if v2 > scaleThreshold {
				allSmall = false
			}
			if v3 > scaleThreshold {
				allSmall = false
			}
		}
		finishPattern(dst, dstScale, a.Scale, b.Scale, pat, base, R*S, allSmall)
	}
}

// tipTable20 returns lut, grown to hold the 20-state tip table of the
// transposed P matrices pt: per rate r and tipRow row, the child vector
// P^r·code as numeric.CombineRows of pt with the code's 0/1 vector. That is
// exact: P is finite and ≥ 0, so a 0 coefficient adds +0, which leaves every
// partial sum of the chain unchanged, and a 1 adds the entry itself — the
// generic bitmask walk's operations.
func (p *Partition) tipTable20(lut, pt []float64) []float64 {
	const S = 20
	R, n := p.nrates, S+len(p.codes.ambig)
	lut = grow(lut, R*n*S)
	for row := 0; row < n; row++ {
		var code uint32
		if row < S {
			code = 1 << uint(row)
		} else {
			code = p.codes.ambig[row-S]
		}
		coef := codeVector20(code)
		for r := 0; r < R; r++ {
			numeric.CombineRows(lut[(r*n+row)*S:(r*n+row+1)*S], pt[r*S*S:(r+1)*S*S], coef[:])
		}
	}
	return lut
}

// updateCLV20 is the 20-state (amino acid) kernel: an inner child vector is
// numeric.CombineRows of the rate's transposed P with the child's CLV block,
// a tip child vector a row of the tip table (tipChild20).
func (p *Partition) updateCLV20(dst []float64, dstScale []int32, a, b Operand, lo, hi int, sc *Scratch) {
	const S = 20
	R := p.nrates
	thr := scaleThreshold
	var xa, xb [S]float64
	for pat := lo; pat < hi; pat++ {
		base := pat * R * S
		allSmall := true
		for r := 0; r < R; r++ {
			off := base + r*S
			va, vb := &xa, &xb
			if a.Tip == nil {
				numeric.CombineRows(xa[:], sc.ptA[r*S*S:(r+1)*S*S], a.CLV[off:off+S])
			} else {
				va = p.tipChild20(&xa, sc.ptA, sc.lutA, a.Tip[pat], r)
			}
			if b.Tip == nil {
				numeric.CombineRows(xb[:], sc.ptB[r*S*S:(r+1)*S*S], b.CLV[off:off+S])
			} else {
				vb = p.tipChild20(&xb, sc.ptB, sc.lutB, b.Tip[pat], r)
			}
			d := (*[S]float64)(dst[off:])
			for s := range d {
				v := va[s] * vb[s]
				d[s] = v
				if v > thr {
					allSmall = false
				}
			}
		}
		finishPattern(dst, dstScale, a.Scale, b.Scale, pat, base, R*S, allSmall)
	}
}

// tipChild20 returns the child vector P^r·code of a tip, pt and lut being
// its operand's transposed P and tip table: the table row of code or, for a
// code outside the table (no leaf of the partition uses it), x filled the
// way a table entry is.
func (p *Partition) tipChild20(x *[20]float64, pt, lut []float64, code uint32, r int) *[20]float64 {
	const S = 20
	if row := p.tipRow(code); row >= 0 {
		return (*[S]float64)(lut[(r*(S+len(p.codes.ambig))+row)*S:])
	}
	coef := codeVector20(normTipCode(code, S))
	numeric.CombineRows(x[:], pt[r*S*S:(r+1)*S*S], coef[:])
	return x
}

// codeVector20 returns the 0/1 vector of a 20-state code.
func codeVector20(code uint32) (c [20]float64) {
	for s := range c {
		c[s] = float64(code >> uint(s) & 1)
	}
	return c
}

// --- edge log-likelihood dispatch ---

// EdgeLogLikScratch evaluates the total log-likelihood of the tree at an edge
// whose two directed CLVs are a and b, connected by transition matrices pm
// for the edge's branch length:
//
//	ℓ = Σ_pat w_pat · [ log Σ_r f_r Σ_s π_s a_s (Σ_s' P^r_ss' b_s') − scale·log 2^256 ]
//
// sc holds the tip LUT of a tip b, so the call is allocation-free once sc is
// warm.
func (p *Partition) EdgeLogLikScratch(a, b Operand, pm []float64, sc *Scratch) float64 {
	if p.states != 4 {
		return p.EdgeLogLikGeneric(a, b, pm)
	}
	var lutB []float64
	if b.IsTip() {
		sc.lutB = grow(sc.lutB, p.nrates*16*4)
		p.dnaTipLUT(pm, sc.lutB)
		lutB = sc.lutB
	}
	return p.edgeLogLik4(a, b, pm, lutB)
}

func edgeScaleCount(a, b Operand, pat int) int32 {
	var count int32
	if a.Scale != nil {
		count += a.Scale[pat]
	}
	if b.Scale != nil {
		count += b.Scale[pat]
	}
	return count
}

// edgeLogLik4 is the 4-state-specialized EdgeLogLikScratch: per pattern, the
// B-side child vector via LUT (tip) or unrolled mat-vec (inner), then
// π-premultiplied accumulation against A.
func (p *Partition) edgeLogLik4(a, b Operand, pm, lutB []float64) float64 {
	const S = 4
	pi := p.Model.Freqs()
	pi0, pi1, pi2, pi3 := pi[0], pi[1], pi[2], pi[3]
	R := p.nrates
	total := 0.0
	for pat := 0; pat < p.patterns; pat++ {
		base := pat * R * S
		site := 0.0
		for r := 0; r < R; r++ {
			off := base + r*S
			var x0, x1, x2, x3 float64
			if lutB != nil {
				code := int(b.Tip[pat])
				xv := lutB[(r*16+code)*4 : (r*16+code)*4+4 : (r*16+code)*4+4]
				x0, x1, x2, x3 = xv[0], xv[1], xv[2], xv[3]
			} else {
				pr := pm[r*S*S : (r+1)*S*S : (r+1)*S*S]
				cv := b.CLV[off : off+S : off+S]
				c0, c1, c2, c3 := cv[0], cv[1], cv[2], cv[3]
				x0 = 0.0
				x0 += pr[0] * c0
				x0 += pr[1] * c1
				x0 += pr[2] * c2
				x0 += pr[3] * c3
				x1 = 0.0
				x1 += pr[4] * c0
				x1 += pr[5] * c1
				x1 += pr[6] * c2
				x1 += pr[7] * c3
				x2 = 0.0
				x2 += pr[8] * c0
				x2 += pr[9] * c1
				x2 += pr[10] * c2
				x2 += pr[11] * c3
				x3 = 0.0
				x3 += pr[12] * c0
				x3 += pr[13] * c1
				x3 += pr[14] * c2
				x3 += pr[15] * c3
			}
			sum := 0.0
			if a.Tip != nil {
				// Ascending set-bit order, exactly like the generic bitmask walk.
				c := normTipCode(a.Tip[pat], S)
				if c&1 != 0 {
					sum += pi0 * x0
				}
				if c&2 != 0 {
					sum += pi1 * x1
				}
				if c&4 != 0 {
					sum += pi2 * x2
				}
				if c&8 != 0 {
					sum += pi3 * x3
				}
			} else {
				av := a.CLV[off : off+S : off+S]
				sum += pi0 * av[0] * x0
				sum += pi1 * av[1] * x1
				sum += pi2 * av[2] * x2
				sum += pi3 * av[3] * x3
			}
			site += p.Rates.Weights[r] * sum
		}
		count := edgeScaleCount(a, b, pat)
		total += p.Comp.Weights[pat] * (math.Log(site) - float64(count)*logScaleFactor)
	}
	return total
}
