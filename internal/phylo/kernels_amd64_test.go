package phylo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/seq"
)

// requireAVX skips a test of the assembly kernels on a CPU without AVX.
func requireAVX(t testing.TB) {
	t.Helper()
	if !useAVX {
		t.Skip("this CPU has no AVX: the Go kernels are the only path")
	}
}

// avxPartition fabricates a partition with nrates categories over width
// sites, one pattern per site: a 4-state GTR one whose leaves use every
// code, or at 20 states a SyntheticAA one whose leaves use the AA
// alphabet's ambiguous codes (B, Z, J and the gap). The range kernels and the query walks read the alignment
// only through its pattern count, site-to-pattern map and gap code.
func avxPartition(t testing.TB, states, nrates, width int) *Partition {
	t.Helper()
	rates := model.UniformRates()
	if nrates > 1 {
		var err error
		if rates, err = model.GammaRates(0.6, nrates); err != nil {
			t.Fatal(err)
		}
	}
	s2p := make([]int, width)
	for site := range s2p {
		s2p[site] = site
	}
	if states == 20 {
		var ambig []uint32
		for _, c := range []byte("-BZJ") {
			code, err := seq.AA.Code(c)
			if err != nil {
				t.Fatal(err)
			}
			ambig = append(ambig, code)
		}
		comp := &seq.Compressed{Alphabet: seq.AA, Weights: make([]float64, width), SiteToPattern: s2p}
		return &Partition{Model: model.SyntheticAA(), Rates: rates, Comp: comp, patterns: width, states: 20, nrates: nrates, codes: usedCodes{ambig: ambig}}
	}
	gtr, err := model.GTR([]float64{0.3, 0.25, 0.2, 0.25}, []float64{1.2, 3.1, 0.8, 1.0, 2.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	comp := &seq.Compressed{Alphabet: seq.DNA, Weights: make([]float64, width), SiteToPattern: s2p}
	return &Partition{Model: gtr, Rates: rates, Comp: comp, patterns: width, states: 4, nrates: nrates, codes: usedCodes{dna: 0xffff}}
}

// tableTipOperand returns a 20-state tip operand whose codes are single
// states, the partition's ambiguous codes and the invalid 0, all rows of
// the tip table; with foreign, about one pattern in 50 has a code no leaf
// uses, which sends its batch to the Go kernel.
func tableTipOperand(p *Partition, rng *rand.Rand, foreign bool) Operand {
	codes := make([]uint32, p.patterns)
	for pat := range codes {
		switch n := rng.Intn(50); {
		case n == 0 && foreign:
			codes[pat] = 0x5a5a5 // no leaf uses it
		case n < 3:
			codes[pat] = 0
		case n < 12:
			codes[pat] = p.codes.ambig[rng.Intn(len(p.codes.ambig))]
		default:
			codes[pat] = 1 << uint(rng.Intn(20))
		}
	}
	return TipOperand(codes)
}

// edgeCLVOperand returns an inner operand holding what a reordered or fused
// chain would show: ordinary likelihoods, ±0, subnormals and the odd NaN.
// With tiny, the blocks of about half the patterns are scaled by 2^-300, so
// those patterns rescale and the others do not.
func edgeCLVOperand(p *Partition, rng *rand.Rand, tiny bool) Operand {
	op := randCLVOperand(p, rng, false)
	blk := p.nrates * p.states
	for pat := 0; pat < p.patterns; pat++ {
		scaleDown := tiny && rng.Intn(2) == 0
		for i := pat * blk; i < (pat+1)*blk; i++ {
			switch rng.Intn(40) {
			case 0:
				op.CLV[i] = 0
			case 1:
				op.CLV[i] = math.Copysign(0, -1)
			case 2:
				op.CLV[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
			case 3:
				if rng.Intn(8) == 0 {
					op.CLV[i] = math.NaN()
				}
			}
			if scaleDown {
				op.CLV[i] = math.Ldexp(op.CLV[i], -300)
			}
		}
	}
	return op
}

// sameFloat compares bit for bit; two NaNs count as equal, since IEEE
// leaves open which operand's payload a NaN result carries.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPrune runs the pruning step over patterns [lo, hi) through the AVX
// kernels and through the Go kernels and requires the same bits from both,
// and from UpdateCLVGeneric on those patterns; every entry outside the range
// must keep the sentinel the buffers start with. It returns how many of the
// patterns were rescaled.
func checkPrune(t *testing.T, label string, p *Partition, a, b Operand, pa, pb []float64, lo, hi int) (rescaled int) {
	t.Helper()
	const sentinel = -3.5
	want := make([]float64, p.CLVLen())
	wantScale := make([]int32, p.ScaleLen())
	p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)
	sc := p.NewScratch()
	p.prepareUpdate(sc, a, b, pa, pb)
	blk := p.nrates * p.states
	run := func(kernel func(dst []float64, dstScale []int32)) ([]float64, []int32) {
		dst := make([]float64, p.CLVLen())
		dstScale := make([]int32, p.ScaleLen())
		for i := range dst {
			dst[i] = sentinel
		}
		for i := range dstScale {
			dstScale[i] = -1
		}
		kernel(dst, dstScale)
		return dst, dstScale
	}
	avx, avxScale := run(func(dst []float64, dstScale []int32) { p.updateCLVAVX(dst, dstScale, a, b, lo, hi, sc) })
	gok, goScale := run(func(dst []float64, dstScale []int32) { p.updateCLVRangeGo(dst, dstScale, a, b, pa, pb, lo, hi, sc) })
	for pat := 0; pat < p.patterns; pat++ {
		in := pat >= lo && pat < hi
		for i := pat * blk; i < (pat+1)*blk; i++ {
			switch {
			case !in && (avx[i] != sentinel || gok[i] != sentinel):
				t.Fatalf("%s: CLV[%d] outside [%d, %d) written: avx %v, go %v", label, i, lo, hi, avx[i], gok[i])
			case in && !sameFloat(avx[i], gok[i]):
				t.Fatalf("%s: CLV[%d] avx %v (%#x), go %v (%#x)", label, i, avx[i], math.Float64bits(avx[i]), gok[i], math.Float64bits(gok[i]))
			case in && !sameFloat(gok[i], want[i]):
				t.Fatalf("%s: CLV[%d] go %v, generic %v", label, i, gok[i], want[i])
			}
		}
		switch {
		case !in && (avxScale[pat] != -1 || goScale[pat] != -1):
			t.Fatalf("%s: scale[%d] outside [%d, %d) written", label, pat, lo, hi)
		case in && (avxScale[pat] != goScale[pat] || goScale[pat] != wantScale[pat]):
			t.Fatalf("%s: scale[%d] avx %d, go %d, generic %d", label, pat, avxScale[pat], goScale[pat], wantScale[pat])
		case in && wantScale[pat] > edgeScaleCount(a, b, pat):
			rescaled++
		}
	}
	return rescaled
}

// TestUpdateCLV4AVXMatchesGoBitwise: the assembly range kernels reproduce
// the Go 4-state kernels and UpdateCLVGeneric bit for bit — values, scale
// counters, and nothing written outside the range — for every operand kind,
// one, four and five rates, CLVs that rescale some patterns and not others,
// ±0, subnormal and NaN entries, tip codes 0 and 15 among the rest, and
// ranges of 0, 1, 63, 64 and 65 patterns from an aligned and an unaligned
// start, besides the whole width.
func TestUpdateCLV4AVXMatchesGoBitwise(t *testing.T) {
	requireAVX(t)
	const patterns = 200
	for _, nrates := range []int{1, 4, 5} {
		rng := rand.New(rand.NewSource(int64(nrates)))
		p := avxPartition(t, 4, nrates, patterns)
		pa, pb := make([]float64, p.PLen()), make([]float64, p.PLen())
		for _, kinds := range operandKinds {
			for _, tiny := range []bool{false, true} {
				a, b := makeOperand(p, kinds[0], rng, false), makeOperand(p, kinds[1], rng, false)
				if !a.IsTip() {
					a = edgeCLVOperand(p, rng, tiny)
				}
				if !b.IsTip() {
					b = edgeCLVOperand(p, rng, tiny)
				}
				p.FillP(pa, 0.01+rng.Float64())
				p.FillP(pb, 0.01+rng.Float64())
				for _, lo := range []int{0, 3} {
					for _, n := range []int{0, 1, 63, 64, 65, patterns - lo} {
						label := fmt.Sprintf("R=%d %sx%s tiny=%v [%d, %d)", nrates, kinds[0], kinds[1], tiny, lo, lo+n)
						rescaled := checkPrune(t, label, p, a, b, pa, pb, lo, lo+n)
						if tiny && kinds == [2]string{"inner", "inner"} && n == patterns && (rescaled == 0 || rescaled == n) {
							t.Fatalf("%s: %d of %d patterns rescaled; the test needs some of each", label, rescaled, n)
						}
					}
				}
			}
		}
	}
}

// TestUpdateCLV20AVXMatchesGoBitwise is the same property at 20 states: the
// inner×inner and tip×inner range kernels (either tip order) and the cherry
// path reproduce the Go updateCLV20 and UpdateCLVGeneric bit for bit, at
// one, three, four and five rates, over single-state, ambiguous, gap and 0
// tip codes, with and without a code outside the tip table, on CLVs with
// ±0, subnormal and NaN entries of which some patterns rescale.
func TestUpdateCLV20AVXMatchesGoBitwise(t *testing.T) {
	requireAVX(t)
	const patterns = 150
	for _, nrates := range []int{1, 3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(20 + nrates)))
		p := avxPartition(t, 20, nrates, patterns)
		pa, pb := make([]float64, p.PLen()), make([]float64, p.PLen())
		for _, kinds := range operandKinds {
			for _, tiny := range []bool{false, true} {
				operand := func(kind string) Operand {
					if kind == "tip" {
						return tableTipOperand(p, rng, tiny)
					}
					return edgeCLVOperand(p, rng, tiny)
				}
				a, b := operand(kinds[0]), operand(kinds[1])
				p.FillP(pa, 0.01+rng.Float64())
				p.FillP(pb, 0.01+rng.Float64())
				for _, lo := range []int{0, 3} {
					for _, n := range []int{0, 1, 63, 64, 65, patterns - lo} {
						label := fmt.Sprintf("R=%d %sx%s foreign/tiny=%v [%d, %d)", nrates, kinds[0], kinds[1], tiny, lo, lo+n)
						rescaled := checkPrune(t, label, p, a, b, pa, pb, lo, lo+n)
						if tiny && kinds[1] == "inner" && n == patterns && (rescaled == 0 || rescaled == n) {
							t.Fatalf("%s: %d of %d patterns rescaled; the test needs some of each", label, rescaled, n)
						}
					}
				}
			}
		}
	}
}

// FuzzPrune4 holds the AVX range kernels to the Go kernels and the generic
// one on arbitrary CLV bits. sel picks the operand kinds (sel%4, in
// operandKinds order), the rate count (1 + sel/4%5) and the branch lengths;
// raw is read as little-endian float64s for the inner operands' CLVs, and
// its bytes as tip codes and scale counters.
func FuzzPrune4(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		requireAVX(t)
		nrates := 1 + int(sel/4)%5
		patterns := min(len(raw)/(8*2*nrates*4), 130)
		if patterns == 0 {
			return
		}
		p := avxPartition(t, 4, nrates, patterns)
		n := patterns * nrates * 4
		vals := make([]float64, 2*n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		operand := func(kind string, clv []float64, byteOff int) Operand {
			if kind == "tip" {
				codes := make([]uint32, patterns)
				for pat := range codes {
					codes[pat] = uint32(raw[8*pat+byteOff] & 15)
				}
				return TipOperand(codes)
			}
			scale := make([]int32, patterns)
			for pat := range scale {
				scale[pat] = int32(raw[8*pat+byteOff] % 3)
			}
			return CLVOperand(clv, scale)
		}
		kinds := operandKinds[sel%4]
		a, b := operand(kinds[0], vals[:n], 0), operand(kinds[1], vals[n:], 1)
		pa, pb := make([]float64, p.PLen()), make([]float64, p.PLen())
		p.FillP(pa, 0.01+float64(sel%7)/5)
		p.FillP(pb, 0.02+float64(sel%11)/7)
		checkPrune(t, "fuzz", p, a, b, pa, pb, 0, patterns)
		checkPrune(t, "fuzz/unaligned", p, a, b, pa, pb, 1, patterns)
	})
}

// FuzzPrune20 is FuzzPrune4 at 20 states. sel picks the operand kinds
// (sel%4), the rate count (1 + sel/4%5) and the branch lengths; raw, read as
// little-endian float64s over and over, fills the inner operands' CLVs, and
// its bytes give min(len(raw)/16, 80) patterns their scale counters and tip
// codes: modulo 26, a single state (0–19), one of the partition's ambiguous
// codes (20–23), the invalid 0 (24) or a code outside the tip table, taken
// from raw's bits (25). Reusing raw keeps inputs small, so that the fuzzer
// minimises them quickly.
func FuzzPrune20(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		requireAVX(t)
		nrates := 1 + int(sel/4)%5
		patterns := min(len(raw)/16, 80)
		if patterns == 0 {
			return
		}
		p := avxPartition(t, 20, nrates, patterns)
		n := patterns * nrates * 20
		vals := make([]float64, 2*n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i%(len(raw)/8)):]))
		}
		operand := func(kind string, clv []float64, byteOff int) Operand {
			if kind == "tip" {
				codes := make([]uint32, patterns)
				for pat := range codes {
					switch v := int(raw[8*pat+byteOff]) % 26; {
					case v < 20:
						codes[pat] = 1 << uint(v)
					case v < 24:
						codes[pat] = p.codes.ambig[v-20]
					case v == 25:
						codes[pat] = binary.LittleEndian.Uint32(raw[8*pat+4:])&0xfffff | 3
					}
				}
				return TipOperand(codes)
			}
			scale := make([]int32, patterns)
			for pat := range scale {
				scale[pat] = int32(raw[8*pat+byteOff] % 3)
			}
			return CLVOperand(clv, scale)
		}
		kinds := operandKinds[sel%4]
		a, b := operand(kinds[0], vals[:n], 0), operand(kinds[1], vals[n:], 1)
		pa, pb := make([]float64, p.PLen()), make([]float64, p.PLen())
		p.FillP(pa, 0.01+float64(sel%7)/5)
		p.FillP(pb, 0.02+float64(sel%11)/7)
		checkPrune(t, "fuzz", p, a, b, pa, pb, 0, patterns)
		checkPrune(t, "fuzz/unaligned", p, a, b, pa, pb, 1, patterns)
	})
}

// walkSiteGeneric is one covered site's likelihood as queryLogLikGeneric
// computes it.
func walkSiteGeneric(p *Partition, bclv []float64, cs coveredSite, piP []float64) float64 {
	S, R := p.states, p.nrates
	base := int(cs.pat) * R * S
	site := 0.0
	for r := 0; r < R; r++ {
		sum := 0.0
		for c := cs.code; c != 0; c &= c - 1 {
			sp := trailingZeros32(c)
			for s := 0; s < S; s++ {
				sum += piP[(r*S+sp)*S+s] * bclv[base+r*S+s]
			}
		}
		site += p.Rates.Weights[r] * sum
	}
	return site
}

// TestQueryLogLik4AVXBitwise: the Γ4 query walk on walk4AVX gives the bits
// of queryLogLikGeneric and of the Go walk (queryLogLik4) on reads that mix
// single-state, ambiguous and gap sites, over covered lists of 0, 1, 64, 65
// and 500 sites in both gap modes, and walk4AVX gives each single-state
// site the generic loop's likelihood, bit for bit, while leaving the other
// sites' slots alone.
func TestQueryLogLik4AVXBitwise(t *testing.T) { checkWalkAVX(t, 4, 35) }

// TestQueryLogLik20AVXBitwise is the same property of walk20AVX against
// queryLogLik20.
func TestQueryLogLik20AVXBitwise(t *testing.T) { checkWalkAVX(t, 20, 36) }

func checkWalkAVX(t *testing.T, states int, seed int64) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(seed))
	goWalk, walk := (*Partition).queryLogLik4, walk4AVX
	if states == 20 {
		goWalk, walk = (*Partition).queryLogLik20, walk20AVX
	}
	for _, width := range []int{1, 64, 65, 500} {
		p := avxPartition(t, states, 4, width)
		sc := p.NewScratch()
		bclv := edgeCLVOperand(p, rng, true)
		for i, v := range bclv.CLV {
			if math.IsNaN(v) {
				bclv.CLV[i] = 0.5 // a NaN site makes the whole walk NaN
			}
		}
		ppend := make([]float64, p.PLen())
		p.FillP(ppend, 0.01+rng.Float64())
		gap := p.Comp.Alphabet.GapMask()
		for _, shape := range []string{"single", "mixed", "gaps", "all-gap"} {
			query := make([]uint32, width)
			for site := range query {
				query[site] = 1 << uint(rng.Intn(states))
				switch {
				case shape == "all-gap" || shape == "gaps" && rng.Intn(3) == 0:
					query[site] = gap
				case shape != "single" && rng.Intn(4) == 0:
					query[site] = uint32(rng.Intn(1 << uint(states))) // ambiguity codes, 0 among them
				}
			}
			for _, skipGaps := range []bool{true, false} {
				label := fmt.Sprintf("S=%d width=%d %s skipGaps=%v", states, width, shape, skipGaps)
				p.queryPatternRuns(query, skipGaps, sc)
				piP := foldPendant(p, ppend, sc)
				want := p.queryLogLikGeneric(bclv.CLV, bclv.Scale, sc.cover, piP)
				if got := p.queryLogLikAVX(bclv.CLV, bclv.Scale, sc.cover, piP, sc); !sameFloat(got, want) {
					t.Fatalf("%s (%d sites): AVX walk %v, generic %v", label, len(sc.cover), got, want)
				}
				if got := goWalk(p, bclv.CLV, bclv.Scale, sc.cover, piP); !sameFloat(got, want) {
					t.Fatalf("%s: Go walk %v, generic %v", label, got, want)
				}
				for lo := 0; lo < len(sc.cover); lo += avxBatch {
					batch := sc.cover[lo:min(lo+avxBatch, len(sc.cover))]
					site := make([]float64, len(batch))
					for i := range site {
						site[i] = -1
					}
					walk(site, batch, bclv.CLV, sc.piPT, p.Rates.Weights)
					for i, cs := range batch {
						want := -1.0
						if cs.off >= 0 {
							want = walkSiteGeneric(p, bclv.CLV, cs, piP)
						}
						if !sameFloat(site[i], want) {
							t.Fatalf("%s: site %d (pattern %d, code %#x): AVX kernel %v, want %v", label, lo+i, cs.pat, cs.code, site[i], want)
						}
					}
				}
			}
		}
	}
}

// TestAVXDispatch: on linux/amd64 the AVX path runs exactly when the kernel
// lists the avx flag — the 4-state pruning step builds the transposed P only
// the AVX kernels read, and the Γ4 walks at 4 and 20 states re-lay out their
// pendant tables — so a broken CPUID or XGETBV check cannot fall back to Go
// unnoticed. The 20-state pruning step is routed by the same useAVX.
func TestAVXDispatch(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the flag list is read from linux's /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	hasAVX := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				hasAVX = hasAVX || f == "avx"
			}
			break
		}
	}
	if useAVX != hasAVX {
		t.Fatalf("/proc/cpuinfo lists avx: %v; useAVX = %v", hasAVX, useAVX)
	}
	for _, states := range []int{4, 20} {
		p := avxPartition(t, states, 4, 10)
		rng := rand.New(rand.NewSource(5))
		a, b := randCLVOperand(p, rng, false), randCLVOperand(p, rng, false)
		pm := make([]float64, p.PLen())
		p.FillP(pm, 0.1)
		sc := p.NewScratch()
		dst, dstScale := sc.CLV(0)
		p.UpdateCLVScratch(dst, dstScale, a, b, pm, pm, sc)
		query := make([]uint32, 10)
		for site := range query {
			query[site] = 1 << uint(site%states)
		}
		got := p.QueryLogLikScratch(dst, dstScale, query, pm, true, sc)
		if want := p.queryLogLikGeneric(dst, dstScale, sc.cover, foldPendant(p, pm, sc)); !sameFloat(got, want) {
			t.Fatalf("S=%d: walk %v, generic %v", states, got, want)
		}
		pruned, walked := len(sc.ptA) > 0, len(sc.piPT) > 0
		if walked != hasAVX || states == 4 && pruned != hasAVX {
			t.Fatalf("S=%d: /proc/cpuinfo lists avx: %v; AVX pruning ran: %v, AVX walk ran: %v", states, hasAVX, pruned, walked)
		}
	}
	t.Logf("the pruning kernels and Γ4 query walks run in AVX: %v", useAVX)
}
