package phylo

import (
	"unsafe"

	"phylomem/internal/numeric"
)

// useAVX reports whether the 4- and 20-state pruning kernels and Γ4 query
// walks run in AVX assembly (kernels4_amd64.s, kernels20_amd64.s). It is
// numeric's one CPUID answer: no flag, the CPU decides.
var useAVX = numeric.HasAVX

// avxBatch is the most patterns (pruning) or covered sites (query walk) one
// assembly call handles; its per-item output lives in a stack array.
const avxBatch = 64

// The range kernels compute, per pattern of dst and rate r, the S-vector
// (Pa·a)⊙(Pb·b) exactly as the Go kernels of kernels.go do, and set small[i]
// to 1 when no entry of pattern i compares greater than scaleThreshold (a NaN
// counts as small), else 0. An inner child is read through its rate's
// transposed P (transposeP). A tip child is a row of its table: at 4 states
// the dnaTipLUT row of its code (masked to 4 bits), a tip pair the pair
// table's; at 20 states row rows[i] of the tip table, whose rate blocks hold
// ncodes rows each (tipTable20). dst, o, a and b hold len(small) patterns of
// nrates blocks of S.

//go:noescape
func prune4InnerInnerAVX(dst, a, b, pta, ptb []float64, small []uint8, nrates int)

//go:noescape
func prune4TipInnerAVX(dst, o, pto, lut []float64, codes []uint32, small []uint8, nrates int)

//go:noescape
func prune4TipTipAVX(dst, pair []float64, ca, cb []uint32, small []uint8, nrates int)

//go:noescape
func prune20InnerInnerAVX(dst, a, b, pta, ptb []float64, small []uint8, nrates int)

//go:noescape
func prune20TipInnerAVX(dst, o, pto, lut []float64, rows []uint32, small []uint8, nrates, ncodes int)

// walk4AVX and walk20AVX set site[i] to the Γ4 likelihood of cover[i] when
// it is a single-state site, as queryLogLik4 and queryLogLik20 compute it;
// other entries of site are left alone. tab is the π-folded pendant table
// tab[(state·S+k)·4+r] = piP[(r·S+state)·S+k], w the four rate weights. The
// kernels read bclv's block of every covered pattern unchecked.
//
//go:noescape
func walk4AVX(site []float64, cover []coveredSite, bclv, tab, w []float64)

//go:noescape
func walk20AVX(site []float64, cover []coveredSite, bclv, tab, w []float64)

// The walks read cover as 12-byte records with pat at offset 0 and off at 4;
// these two lines stop the build if coveredSite changes shape.
var _ [12]byte = [unsafe.Sizeof(coveredSite{})]byte{}
var _ [4]byte = [unsafe.Offsetof(coveredSite{}.off)]byte{}

// updateCLVAVX is updateCLVRange at 4 and 20 states on the AVX range
// kernels: the kernel runs over at most avxBatch patterns at a time, then
// each pattern's scale counter and rescaling are finished in Go. The flags
// and tip rows are on the stack, so UpdateCLVPooled's workers share nothing
// writable. Both operand orders of tip×inner funnel into one kernel: the
// product is commutative and the scale combination symmetric. At 20 states
// a cherry is the Go product of two table rows, and a batch with a tip code
// outside the tip table runs updateCLV20.
func (p *Partition) updateCLVAVX(dst []float64, dstScale []int32, a, b Operand, lo, hi int, sc *Scratch) {
	S, R := p.states, p.nrates
	if S == 20 && sc.haveLUTA && sc.haveLUTB {
		p.updateCLV20(dst, dstScale, a, b, lo, hi, sc)
		return
	}
	var flags [avxBatch]uint8
	for ; lo < hi; lo += avxBatch {
		n := min(hi-lo, avxBatch)
		from, to := lo*R*S, (lo+n)*R*S
		small := flags[:n]
		switch {
		case sc.havePair:
			prune4TipTipAVX(dst[from:to], sc.pair, a.Tip[lo:lo+n], b.Tip[lo:lo+n], small, R)
		case sc.haveLUTA || sc.haveLUTB:
			t, o, pto, lut := a, b, sc.ptB, sc.lutA
			if !sc.haveLUTA {
				t, o, pto, lut = b, a, sc.ptA, sc.lutB
			}
			if S == 4 {
				prune4TipInnerAVX(dst[from:to], o.CLV[from:to], pto, lut, t.Tip[lo:lo+n], small, R)
				break
			}
			var rows [avxBatch]uint32
			if !p.tipRows(rows[:n], t.Tip[lo:lo+n]) {
				p.updateCLV20(dst, dstScale, a, b, lo, lo+n, sc)
				continue
			}
			prune20TipInnerAVX(dst[from:to], o.CLV[from:to], pto, lut, rows[:n], small, R, S+len(p.codes.ambig))
		case S == 4:
			prune4InnerInnerAVX(dst[from:to], a.CLV[from:to], b.CLV[from:to], sc.ptA, sc.ptB, small, R)
		default:
			prune20InnerInnerAVX(dst[from:to], a.CLV[from:to], b.CLV[from:to], sc.ptA, sc.ptB, small, R)
		}
		for i, s := range small {
			finishPattern(dst, dstScale, a.Scale, b.Scale, lo+i, (lo+i)*R*S, R*S, s != 0)
		}
	}
}

// tipRows sets rows[i] to the tip-table row of codes[i] and reports whether
// every code has one.
func (p *Partition) tipRows(rows, codes []uint32) bool {
	for i, c := range codes {
		row := p.tipRow(c)
		if row < 0 {
			return false
		}
		rows[i] = uint32(row)
	}
	return true
}

// queryLogLikAVX is queryLogLik4 or queryLogLik20 under Γ4 with the
// single-state sites on walk4AVX or walk20AVX, avxBatch sites at a time;
// ambiguous sites take the Go bit walk, and every site is folded into the
// product in cover order.
func (p *Partition) queryLogLikAVX(bclv []float64, bscale []int32, cover []coveredSite, piP []float64, sc *Scratch) float64 {
	const R = 4
	S := p.states
	bclv = bclv[:p.patterns*R*S] // every covered pattern's block is in range
	n := S * S
	sc.piPT = grow(sc.piPT, R*n)
	tab := sc.piPT
	p0, p1, p2, p3 := piP[:n], piP[n:2*n], piP[2*n:3*n], piP[3*n:4*n]
	for j := range p0 {
		t := tab[j*R : j*R+R : j*R+R]
		t[0], t[1], t[2], t[3] = p0[j], p1[j], p2[j], p3[j]
	}
	weights := p.Rates.Weights[:R]
	var site [avxBatch]float64
	acc := newLogProduct()
	for len(cover) > 0 {
		n := min(len(cover), avxBatch)
		batch := cover[:n]
		if S == 4 {
			walk4AVX(site[:n], batch, bclv, tab, weights)
		} else {
			walk20AVX(site[:n], batch, bclv, tab, weights)
		}
		for i, cs := range batch {
			l := site[i]
			switch {
			case cs.off < 0 && S == 4:
				l = ambiguousSite4(bclv[int(cs.pat)*R*S:], cs.code, piP, weights)
			case cs.off < 0:
				l = ambiguousSite20(bclv[int(cs.pat)*R*S:], cs.code, piP, weights)
			}
			acc.mul(l, bscale[cs.pat])
		}
		cover = cover[n:]
	}
	return acc.log()
}
