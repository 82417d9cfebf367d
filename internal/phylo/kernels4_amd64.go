package phylo

import (
	"unsafe"

	"phylomem/internal/numeric"
)

// useAVX4 reports whether the 4-state pruning kernels and the Γ4 query walk
// run in AVX assembly (kernels4_amd64.s). It is numeric's one CPUID answer:
// no flag, the CPU decides.
var useAVX4 = numeric.HasAVX

// avxBatch is the most patterns (pruning) or covered sites (query walk) one
// assembly call handles; its per-item output lives in a stack array.
const avxBatch = 64

// The range kernels compute, per pattern of dst and rate r, the 4-vector
// (Pa·a)⊙(Pb·b) exactly as updateCLV4TipTip, updateCLV4TipInner and
// updateCLV4InnerInner do, and set small[i] to 1 when no entry of pattern i
// compares greater than scaleThreshold (a NaN counts as small), else 0. An
// inner child is read through its rate's transposed P (transposeP), a tip
// child through its dnaTipLUT row, a tip pair through the pair table; tip
// codes are masked to 4 bits. dst, o, a and b hold len(small) patterns of
// nrates blocks of 4.

//go:noescape
func prune4InnerInnerAVX(dst, a, b, pta, ptb []float64, small []uint8, nrates int)

//go:noescape
func prune4TipInnerAVX(dst, o, pto, lut []float64, codes []uint32, small []uint8, nrates int)

//go:noescape
func prune4TipTipAVX(dst, pair []float64, ca, cb []uint32, small []uint8, nrates int)

// walk4AVX sets site[i] to the Γ4 likelihood of cover[i] when it is a
// single-state site, as queryLogLik4's Γ4 step computes it; other entries of
// site are left alone. tab is the 64-value π-folded pendant table
// tab[(state·4+k)·4+r] = piP[(r·4+state)·4+k], w the four rate weights. The
// kernel reads bclv's block of every covered pattern unchecked.
//
//go:noescape
func walk4AVX(site []float64, cover []coveredSite, bclv, tab, w []float64)

// walk4AVX reads cover as 12-byte records with pat at offset 0 and off at 4;
// these two lines stop the build if coveredSite changes shape.
var _ [12]byte = [unsafe.Sizeof(coveredSite{})]byte{}
var _ [4]byte = [unsafe.Offsetof(coveredSite{}.off)]byte{}

// updateCLV4AVX is updateCLVRange at 4 states on the AVX range kernels: the
// kernel runs over at most avxBatch patterns at a time, then each pattern's
// scale counter and rescaling are finished in Go. The flags are on the stack,
// so UpdateCLVPooled's workers share nothing writable.
func (p *Partition) updateCLV4AVX(dst []float64, dstScale []int32, a, b Operand, lo, hi int, sc *Scratch) {
	const S = 4
	R := p.nrates
	var flags [avxBatch]uint8
	for ; lo < hi; lo += avxBatch {
		n := min(hi-lo, avxBatch)
		from, to := lo*R*S, (lo+n)*R*S
		small := flags[:n]
		switch {
		case sc.havePair:
			prune4TipTipAVX(dst[from:to], sc.pair, a.Tip[lo:lo+n], b.Tip[lo:lo+n], small, R)
		case sc.haveLUTA:
			prune4TipInnerAVX(dst[from:to], b.CLV[from:to], sc.ptB, sc.lutA, a.Tip[lo:lo+n], small, R)
		case sc.haveLUTB:
			prune4TipInnerAVX(dst[from:to], a.CLV[from:to], sc.ptA, sc.lutB, b.Tip[lo:lo+n], small, R)
		default:
			prune4InnerInnerAVX(dst[from:to], a.CLV[from:to], b.CLV[from:to], sc.ptA, sc.ptB, small, R)
		}
		for i, s := range small {
			finishPattern(dst, dstScale, a.Scale, b.Scale, lo+i, (lo+i)*R*S, R*S, s != 0)
		}
	}
}

// queryLogLik4AVX is queryLogLik4 under Γ4 with the single-state sites on
// walk4AVX, avxBatch sites at a time; ambiguous sites take the Go bit walk,
// and every site is folded into the product in cover order.
func (p *Partition) queryLogLik4AVX(bclv []float64, bscale []int32, cover []coveredSite, piP []float64, sc *Scratch) float64 {
	const S, R = 4, 4
	bclv = bclv[:p.patterns*R*S] // every covered pattern's block is in range
	tab := &sc.piPT
	for j := 0; j < S*S; j++ {
		for r := 0; r < R; r++ {
			tab[j*R+r] = piP[r*S*S+j]
		}
	}
	weights := p.Rates.Weights[:R]
	var site [avxBatch]float64
	acc := newLogProduct()
	for len(cover) > 0 {
		n := min(len(cover), avxBatch)
		batch := cover[:n]
		walk4AVX(site[:n], batch, bclv, tab[:], weights)
		for i, cs := range batch {
			l := site[i]
			if cs.off < 0 {
				l = ambiguousSite4(bclv[int(cs.pat)*R*S:], cs.code, piP, weights)
			}
			acc.mul(l, bscale[cs.pat])
		}
		cover = cover[n:]
	}
	return acc.log()
}
