package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/parallel"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// kernelCase is one partition configuration the equivalence properties run
// over: alphabet, model, and rate-category count.
type kernelCase struct {
	name     string
	alphabet *seq.Alphabet
	model    *model.Model
	rates    *model.RateHet
}

func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	gtr, err := model.GTR(
		[]float64{0.3, 0.25, 0.2, 0.25},
		[]float64{1.2, 3.1, 0.8, 1.0, 2.5, 1.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := model.GammaRates(0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := model.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := model.GammaRates(1.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []kernelCase{
		{"DNA-JC69-1rate", seq.DNA, model.JC69(), model.UniformRates()},
		{"DNA-GTR-2rates", seq.DNA, gtr, g2},
		{"DNA-GTR-4rates", seq.DNA, gtr, g4},
		{"AA-SYN-1rate", seq.AA, model.SyntheticAA(), model.UniformRates()},
		{"AA-SYN-3rates", seq.AA, model.SyntheticAA(), g3},
	}
}

// kernelPartition builds a small partition for a case; the tree/MSA only
// matter for pattern compression and the codes the leaves use — operands
// are fabricated per test. At 4 states leaf E carries every code
// randTipOperand draws, the invalid 0 included, so the tip tables have a row
// for each; at 20 states a drawn code no leaf uses takes the kernels' own
// fallback.
func kernelPartition(t *testing.T, kc kernelCase, rng *rand.Rand) *Partition {
	t.Helper()
	tr, err := tree.ParseNewick("((A:0.1,B:0.2):0.15,(C:0.3,D:0.05):0.2,E:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := seq.Compress(randomMSA(t, tr, kc.alphabet, 70, rng))
	if err != nil {
		t.Fatal(err)
	}
	if kc.alphabet.States() == 4 {
		row := comp.Patterns[comp.TaxonIndex("E")]
		for code := range 16 {
			row[code] = uint32(code)
		}
	}
	p, err := NewPartition(kc.model, kc.rates, comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randTipOperand fabricates per-pattern tip codes covering the whole code
// space, including the invalid 0 (exercised by the normTipCode fix) and the
// full-ambiguity mask.
func randTipOperand(p *Partition, rng *rand.Rand) Operand {
	full := uint32(1)<<uint(p.States()) - 1
	codes := make([]uint32, p.NumPatterns())
	for i := range codes {
		switch rng.Intn(8) {
		case 0:
			codes[i] = 0 // invalid code: must behave as full ambiguity
		case 1:
			codes[i] = full // gap
		default:
			codes[i] = uint32(rng.Intn(int(full))) + 1
		}
	}
	return TipOperand(codes)
}

// randCLVOperand fabricates an inner-CLV operand with nonzero scale counters;
// tiny=true shrinks the values so the next UpdateCLVScratch triggers scaling.
func randCLVOperand(p *Partition, rng *rand.Rand, tiny bool) Operand {
	clv := make([]float64, p.CLVLen())
	for i := range clv {
		v := rng.Float64() + 1e-3
		if tiny {
			v = math.Ldexp(v, -300)
		}
		clv[i] = v
	}
	scale := make([]int32, p.ScaleLen())
	for i := range scale {
		scale[i] = int32(rng.Intn(3))
	}
	return CLVOperand(clv, scale)
}

// operandKinds enumerates the four child-kind combinations of UpdateCLVScratch.
var operandKinds = [][2]string{{"tip", "tip"}, {"tip", "inner"}, {"inner", "tip"}, {"inner", "inner"}}

func makeOperand(p *Partition, kind string, rng *rand.Rand, tiny bool) Operand {
	if kind == "tip" {
		return randTipOperand(p, rng)
	}
	return randCLVOperand(p, rng, tiny)
}

func diffCLVs(t *testing.T, label string, want, got []float64, wantScale, gotScale []int32) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: CLV[%d] differs: generic %v (%#x) vs specialized %v (%#x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
	for i := range wantScale {
		if wantScale[i] != gotScale[i] {
			t.Fatalf("%s: scale[%d] differs: generic %d vs specialized %d", label, i, wantScale[i], gotScale[i])
		}
	}
}

// TestUpdateCLVMatchesGenericBitwise is the central equivalence property of
// the dispatch layer: for every alphabet, rate count, and operand-kind
// combination, the specialized kernels must reproduce the generic kernel's
// CLVs and scale counters bit for bit.
func TestUpdateCLVMatchesGenericBitwise(t *testing.T) {
	for _, kc := range kernelCases(t) {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			p := kernelPartition(t, kc, rng)
			pa := make([]float64, p.PLen())
			pb := make([]float64, p.PLen())
			for _, kinds := range operandKinds {
				for trial := 0; trial < 4; trial++ {
					label := fmt.Sprintf("%sx%s/trial%d", kinds[0], kinds[1], trial)
					a := makeOperand(p, kinds[0], rng, false)
					b := makeOperand(p, kinds[1], rng, false)
					p.FillP(pa, 0.01+rng.Float64())
					p.FillP(pb, 0.01+rng.Float64())

					want := make([]float64, p.CLVLen())
					wantScale := make([]int32, p.ScaleLen())
					p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)

					got := make([]float64, p.CLVLen())
					gotScale := make([]int32, p.ScaleLen())
					p.UpdateCLVScratch(got, gotScale, a, b, pa, pb, p.NewScratch())
					diffCLVs(t, label, want, got, wantScale, gotScale)

					for i := range got {
						got[i] = -1
					}
					pool := parallel.New(3)
					p.UpdateCLVPooled(got, gotScale, a, b, pa, pb, pool, p.NewScratch())
					pool.Close()
					diffCLVs(t, label+"/pooled", want, got, wantScale, gotScale)
				}
			}
		})
	}
}

// TestUpdateCLVScalingMatchesGeneric drives the kernels through the scaling
// branch (tiny inner CLVs) and checks both that scaling actually triggered
// and that the specialized path still matches the generic one exactly.
func TestUpdateCLVScalingMatchesGeneric(t *testing.T) {
	for _, kc := range kernelCases(t) {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			p := kernelPartition(t, kc, rng)
			pa := make([]float64, p.PLen())
			pb := make([]float64, p.PLen())
			p.FillP(pa, 0.1)
			p.FillP(pb, 0.2)
			for _, bKind := range []string{"tip", "inner"} {
				a := randCLVOperand(p, rng, true) // tiny: forces per-pattern rescale
				b := makeOperand(p, bKind, rng, false)

				want := make([]float64, p.CLVLen())
				wantScale := make([]int32, p.ScaleLen())
				p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)

				bumped := false
				for pat := 0; pat < p.ScaleLen(); pat++ {
					base := a.Scale[pat]
					if !b.IsTip() {
						base += b.Scale[pat]
					}
					if wantScale[pat] > base {
						bumped = true
					}
				}
				if !bumped {
					t.Fatalf("innerx%s: tiny operand did not trigger scaling; test is vacuous", bKind)
				}

				got := make([]float64, p.CLVLen())
				gotScale := make([]int32, p.ScaleLen())
				p.UpdateCLVScratch(got, gotScale, a, b, pa, pb, p.NewScratch())
				diffCLVs(t, "innerx"+bKind, want, got, wantScale, gotScale)
			}
		})
	}
}

// TestEdgeLogLikMatchesGenericBitwise covers the specialized edge evaluation:
// the total log-likelihood must equal the generic reference bit for bit
// across operand kinds.
func TestEdgeLogLikMatchesGenericBitwise(t *testing.T) {
	for _, kc := range kernelCases(t) {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			p := kernelPartition(t, kc, rng)
			pm := make([]float64, p.PLen())
			for _, kinds := range operandKinds {
				for trial := 0; trial < 3; trial++ {
					label := fmt.Sprintf("%sx%s/trial%d", kinds[0], kinds[1], trial)
					a := makeOperand(p, kinds[0], rng, false)
					b := makeOperand(p, kinds[1], rng, false)
					p.FillP(pm, 0.01+rng.Float64())

					want := p.EdgeLogLikGeneric(a, b, pm)
					got := p.EdgeLogLikScratch(a, b, pm, p.NewScratch())
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("%s: EdgeLogLikScratch differs: generic %v vs specialized %v", label, want, got)
					}
				}
			}
		})
	}
}

// TestTipCodeZeroEqualsFullAmbiguity pins the normTipCode fix: a pattern
// whose tip code is the invalid 0 must produce exactly the same CLV column
// and scale counter as a pattern with the explicit full-ambiguity mask, given
// identical data on the other child.
func TestTipCodeZeroEqualsFullAmbiguity(t *testing.T) {
	for _, kc := range kernelCases(t) {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			p := kernelPartition(t, kc, rng)
			if p.NumPatterns() < 2 {
				t.Skip("need at least two patterns")
			}
			full := uint32(1)<<uint(p.States()) - 1
			R, S := p.NumRates(), p.States()

			codes := make([]uint32, p.NumPatterns())
			for i := range codes {
				codes[i] = uint32(rng.Intn(int(full))) + 1
			}
			codes[0] = 0
			codes[1] = full
			a := TipOperand(codes)

			// The other child carries identical data at patterns 0 and 1.
			for _, bKind := range []string{"tip", "inner"} {
				b := makeOperand(p, bKind, rng, false)
				if b.IsTip() {
					b.Tip[1] = b.Tip[0]
				} else {
					copy(b.CLV[1*R*S:2*R*S], b.CLV[0:R*S])
					b.Scale[1] = b.Scale[0]
				}
				pa := make([]float64, p.PLen())
				pb := make([]float64, p.PLen())
				p.FillP(pa, 0.17)
				p.FillP(pb, 0.42)

				for _, path := range []struct {
					name   string
					update func(dst []float64, dstScale []int32)
				}{
					{"specialized", func(d []float64, ds []int32) { p.UpdateCLVScratch(d, ds, a, b, pa, pb, p.NewScratch()) }},
					{"generic", func(d []float64, ds []int32) { p.UpdateCLVGeneric(d, ds, a, b, pa, pb) }},
				} {
					dst := make([]float64, p.CLVLen())
					dstScale := make([]int32, p.ScaleLen())
					path.update(dst, dstScale)
					col0 := dst[0 : R*S]
					col1 := dst[1*R*S : 2*R*S]
					for i := range col0 {
						if math.Float64bits(col0[i]) != math.Float64bits(col1[i]) {
							t.Fatalf("%s/tipx%s: code-0 column differs from code-%d column at %d: %v vs %v",
								path.name, bKind, full, i, col0[i], col1[i])
						}
					}
					if dstScale[0] != dstScale[1] {
						t.Fatalf("%s/tipx%s: scale counters differ: %d vs %d", path.name, bKind, dstScale[0], dstScale[1])
					}
				}
			}
		})
	}
}

// TestScratchReuseAcrossOperandKinds reuses one Scratch for every operand
// combination in sequence, ensuring stale LUT/pair flags from a previous call
// can never leak into the next dispatch.
func TestScratchReuseAcrossOperandKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	kc := kernelCases(t)[2] // DNA, GTR, 4 rates: exercises all fast paths
	p := kernelPartition(t, kc, rng)
	sc := p.NewScratch()
	pa := make([]float64, p.PLen())
	pb := make([]float64, p.PLen())

	// Cycle through kinds twice so every transition tip-tip -> inner-inner
	// etc. happens with a warm scratch.
	seqKinds := append(append([][2]string{}, operandKinds...), operandKinds...)
	for i, kinds := range seqKinds {
		label := fmt.Sprintf("step%d-%sx%s", i, kinds[0], kinds[1])
		a := makeOperand(p, kinds[0], rng, false)
		b := makeOperand(p, kinds[1], rng, false)
		p.FillP(pa, 0.01+rng.Float64())
		p.FillP(pb, 0.01+rng.Float64())

		want := make([]float64, p.CLVLen())
		wantScale := make([]int32, p.ScaleLen())
		p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)

		got := make([]float64, p.CLVLen())
		gotScale := make([]int32, p.ScaleLen())
		p.UpdateCLVScratch(got, gotScale, a, b, pa, pb, sc)
		diffCLVs(t, label, want, got, wantScale, gotScale)

		// Edge kernels share the same scratch.
		wantLL := p.EdgeLogLikGeneric(a, b, pa)
		gotLL := p.EdgeLogLikScratch(a, b, pa, sc)
		if math.Float64bits(wantLL) != math.Float64bits(gotLL) {
			t.Fatalf("%s: EdgeLogLikScratch with reused scratch differs: %v vs %v", label, wantLL, gotLL)
		}
	}
}

// TestUsedCodeTablesMatchGenericBitwise: on a partition whose leaves use
// only A, C, G and T, the 4-state tip tables are built for those codes and
// the full-ambiguity row alone. With every other row of the tip LUTs and the
// pair table NaN before each call, the dispatched kernels (AVX where the CPU
// has it), the Go kernels and EdgeLogLikScratch still reproduce the generic
// kernels bit for bit on the leaves' own codes, and the NaN rows are still
// there afterwards: nothing reads or writes them.
func TestUsedCodeTablesMatchGenericBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tr, err := tree.ParseNewick("((A:0.1,B:0.2):0.15,(C:0.3,D:0.05):0.2,E:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, 90)
		for i := range data {
			data[i] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	kc := kernelCases(t)[2] // GTR, Γ4
	p := buildPartition(t, tr, msa, kc.model, kc.rates)
	const used = 1<<1 | 1<<2 | 1<<4 | 1<<8
	if p.codes.dna != used {
		t.Fatalf("leaves use code mask %#x, want %#x", p.codes.dna, used)
	}
	R := p.NumRates()
	unusedRow := func(code int) bool { return code != 0 && code != 15 && used&(1<<code) == 0 }
	unusedPair := func(ca, cb int) bool { return used&(1<<ca) == 0 || used&(1<<cb) == 0 }
	poison := func(sc *Scratch) {
		sc.lutA, sc.lutB = make([]float64, R*16*4), make([]float64, R*16*4)
		sc.pair = make([]float64, R*16*16*4)
		for _, lut := range [][]float64{sc.lutA, sc.lutB} {
			for i := range lut {
				if unusedRow(i / 4 % 16) {
					lut[i] = math.NaN()
				}
			}
		}
		for i := range sc.pair {
			if unusedPair(i/(16*4)%16, i/4%16) {
				sc.pair[i] = math.NaN()
			}
		}
	}
	stillPoisoned := func(label string, sc *Scratch) {
		t.Helper()
		for i, v := range sc.lutA {
			if unusedRow(i/4%16) && !math.IsNaN(v) {
				t.Fatalf("%s: unused tip-LUT row %d was written", label, i/4%16)
			}
		}
		for i, v := range sc.pair {
			if unusedPair(i/(16*4)%16, i/4%16) && !math.IsNaN(v) {
				t.Fatalf("%s: unused pair entry (%d, %d) was written", label, i/(16*4)%16, i/4%16)
			}
		}
	}
	leafTip := func() Operand {
		return TipOperand(p.TipCodes(tr.Leaves()[rng.Intn(tr.NumLeaves())].ID))
	}
	pa, pb := make([]float64, p.PLen()), make([]float64, p.PLen())
	for _, kinds := range operandKinds {
		operand := func(kind string) Operand {
			if kind == "tip" {
				return leafTip()
			}
			return randCLVOperand(p, rng, false)
		}
		a, b := operand(kinds[0]), operand(kinds[1])
		p.FillP(pa, 0.01+rng.Float64())
		p.FillP(pb, 0.01+rng.Float64())
		want := make([]float64, p.CLVLen())
		wantScale := make([]int32, p.ScaleLen())
		p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)
		for _, path := range []struct {
			name   string
			update func(dst []float64, dstScale []int32, sc *Scratch)
		}{
			{"dispatched", func(d []float64, ds []int32, sc *Scratch) { p.UpdateCLVScratch(d, ds, a, b, pa, pb, sc) }},
			{"go", func(d []float64, ds []int32, sc *Scratch) { p.UpdateCLVGo(d, ds, a, b, pa, pb, sc) }},
		} {
			label := fmt.Sprintf("%sx%s/%s", kinds[0], kinds[1], path.name)
			sc := p.NewScratch()
			poison(sc)
			got := make([]float64, p.CLVLen())
			gotScale := make([]int32, p.ScaleLen())
			path.update(got, gotScale, sc)
			diffCLVs(t, label, want, got, wantScale, gotScale)
			stillPoisoned(label, sc)
		}
		sc := p.NewScratch()
		poison(sc)
		wantLL, gotLL := p.EdgeLogLikGeneric(a, b, pa), p.EdgeLogLikScratch(a, b, pa, sc)
		if math.Float64bits(wantLL) != math.Float64bits(gotLL) {
			t.Fatalf("%sx%s: EdgeLogLikScratch %v, generic %v", kinds[0], kinds[1], gotLL, wantLL)
		}
	}
}

// TestRealTreeCLVsMatchGeneric runs the property on CLVs arising from a real
// traversal (encoder-produced tip codes, accumulated scaling on a deep
// caterpillar tree) rather than fabricated operands.
func TestRealTreeCLVsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	// Deep caterpillar with short branches: accumulates scaling events.
	inner := "(L14:0.01,L15:0.01)"
	for i := 13; i >= 1; i-- {
		inner = fmt.Sprintf("(L%d:0.01,%s:0.01)", i, inner)
	}
	newick := fmt.Sprintf("(A:0.01,%s:0.01,Q:0.01);", inner)
	tr, err := tree.ParseNewick(newick)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := model.GammaRates(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.DNA, 40, rng)
	p := buildPartition(t, tr, msa, model.JC69(), g4)

	pool2 := parallel.New(2)
	defer pool2.Close()
	full, err := ComputeFullCLVSet(p, tr, pool2)
	if err != nil {
		t.Fatal(err)
	}
	sc := p.NewScratch()
	pa := make([]float64, p.PLen())
	pb := make([]float64, p.PLen())
	for _, edge := range tr.Edges {
		na, nb := edge.Nodes()
		a := full.Operand(tr.DirOf(edge, na))
		b := full.Operand(tr.DirOf(edge, nb))
		p.FillP(pa, edge.Length/2)
		p.FillP(pb, edge.Length/2)

		want := make([]float64, p.CLVLen())
		wantScale := make([]int32, p.ScaleLen())
		p.UpdateCLVGeneric(want, wantScale, a, b, pa, pb)
		got := make([]float64, p.CLVLen())
		gotScale := make([]int32, p.ScaleLen())
		p.UpdateCLVScratch(got, gotScale, a, b, pa, pb, sc)
		diffCLVs(t, fmt.Sprintf("edge%d", edge.ID), want, got, wantScale, gotScale)

		p.FillP(pm4(pa, p), edge.Length) // reuse pa storage for the edge matrix
		wantLL := p.EdgeLogLikGeneric(a, b, pa)
		gotLL := p.EdgeLogLikScratch(a, b, pa, sc)
		if math.Float64bits(wantLL) != math.Float64bits(gotLL) {
			t.Fatalf("edge%d: EdgeLogLikScratch differs: %v vs %v", edge.ID, wantLL, gotLL)
		}
	}
}

// pm4 is a tiny identity helper keeping the FillP reuse above readable.
func pm4(buf []float64, p *Partition) []float64 { return buf[:p.PLen()] }

// TestUpdateCLVRunsMatchesFullOnCoveredPatterns is the premask property of
// phase 2: deriving a CLV only over the runs a query covers gives, on every
// covered pattern, the bits and scale counter of the full-width update, and
// leaves every other pattern untouched — for every kernel the range
// dispatcher can pick (tip-tip, tip-inner, inner-inner, 20-state), with and
// without scaling.
func TestUpdateCLVRunsMatchesFullOnCoveredPatterns(t *testing.T) {
	const sentinel = -7.0
	for _, kc := range kernelCases(t) {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			p := kernelPartition(t, kc, rng)
			sc := p.NewScratch()
			gap := p.Comp.Alphabet.GapMask()
			width := p.Comp.OriginalWidth()
			pa := make([]float64, p.PLen())
			pb := make([]float64, p.PLen())
			blk := p.nrates * p.states
			for _, kinds := range operandKinds {
				for _, tiny := range []bool{false, true} {
					for _, cover := range []string{"fragment", "scattered", "first", "last", "single", "none", "all"} {
						label := fmt.Sprintf("%sx%s/tiny=%v/%s", kinds[0], kinds[1], tiny, cover)
						a := makeOperand(p, kinds[0], rng, tiny)
						b := makeOperand(p, kinds[1], rng, tiny)
						p.FillP(pa, 0.01+rng.Float64())
						p.FillP(pb, 0.01+rng.Float64())

						query := make([]uint32, width)
						lo, hi := rng.Intn(width/2), width/2+rng.Intn(width/2)
						for site := range query {
							query[site] = gap
							var in bool
							switch cover {
							case "fragment":
								in = site >= lo && site < hi
							case "scattered":
								in = rng.Intn(3) == 0
							case "first":
								in = site == 0
							case "last":
								in = site == width-1
							case "single":
								in = site == lo
							case "all":
								in = true
							}
							if in {
								query[site] = 1 << uint(rng.Intn(p.states))
							}
						}
						covered := make([]bool, p.patterns)
						for site, pat := range p.Comp.SiteToPattern {
							if query[site] != gap {
								covered[pat] = true
							}
						}

						runs := p.queryPatternRuns(query, true, sc)
						inRuns := make([]bool, p.patterns)
						prevHi := -1
						for _, run := range runs {
							if run.Lo >= run.Hi || run.Lo <= prevHi {
								t.Fatalf("%s: runs %v not sorted, disjoint and maximal", label, runs)
							}
							prevHi = run.Hi
							for pat := run.Lo; pat < run.Hi; pat++ {
								inRuns[pat] = true
							}
						}
						for pat := range covered {
							if covered[pat] != inRuns[pat] {
								t.Fatalf("%s: pattern %d covered=%v but in runs=%v", label, pat, covered[pat], inRuns[pat])
							}
						}

						want := make([]float64, p.CLVLen())
						wantScale := make([]int32, p.ScaleLen())
						p.UpdateCLVScratch(want, wantScale, a, b, pa, pb, sc)

						got := make([]float64, p.CLVLen())
						gotScale := make([]int32, p.ScaleLen())
						for i := range got {
							got[i] = sentinel
						}
						for i := range gotScale {
							gotScale[i] = sentinel
						}
						n := p.updateCLVRuns(got, gotScale, a, b, pa, pb, runs, sc)
						nCovered := 0
						for pat, c := range covered {
							if !c {
								for i := pat * blk; i < (pat+1)*blk; i++ {
									if got[i] != sentinel {
										t.Fatalf("%s: uncovered pattern %d was written", label, pat)
									}
								}
								if gotScale[pat] != sentinel {
									t.Fatalf("%s: uncovered pattern %d scale was written", label, pat)
								}
								continue
							}
							nCovered++
							diffCLVs(t, label, want[pat*blk:(pat+1)*blk], got[pat*blk:(pat+1)*blk],
								wantScale[pat:pat+1], gotScale[pat:pat+1])
						}
						if n != nCovered {
							t.Fatalf("%s: updateCLVRuns reported %d patterns, covered %d", label, n, nCovered)
						}
					}
				}
			}

			// Premasking off: one run spanning every pattern, whatever the query.
			allGap := make([]uint32, width)
			for i := range allGap {
				allGap[i] = gap
			}
			if runs := p.queryPatternRuns(allGap, false, sc); len(runs) != 1 || runs[0] != (patternRun{0, p.patterns}) {
				t.Fatalf("skipGaps=false runs = %v, want the single full run", runs)
			}
		})
	}
}

// TestQueryPatternRunsContiguousRead pins what makes premasked phase 2
// cheap: patterns are numbered in site order (seq.Compress), so a read
// covering a contiguous window of an alignment without duplicate columns is
// one premask run, and each of d duplicate columns can open at most one more.
func TestQueryPatternRunsContiguousRead(t *testing.T) {
	const ntax, width = 12, 80
	tr, err := tree.Random(ntax, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1, 3, 10} {
		rng := rand.New(rand.NewSource(int64(50 + d)))
		cols := make([][]byte, width)
		for j := range cols {
			cols[j] = make([]byte, ntax)
			for i := range cols[j] {
				cols[j][i] = "ACGT"[rng.Intn(4)]
			}
		}
		// d later columns become copies of earlier ones, left to right so
		// no copied column changes afterwards.
		dups := rng.Perm(width - 1)[:d]
		slices.Sort(dups)
		for _, j := range dups {
			j++
			copy(cols[j], cols[rng.Intn(j)])
		}
		var seqs []seq.Sequence
		for i, leaf := range tr.Leaves() {
			data := make([]byte, width)
			for j := range data {
				data[j] = cols[j][i]
			}
			seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
		}
		msa, err := seq.NewMSA(seq.DNA, seqs)
		if err != nil {
			t.Fatal(err)
		}
		p := buildPartition(t, tr, msa, model.JC69(), model.UniformRates())
		if p.patterns != width-d {
			t.Fatalf("d=%d: %d patterns, want %d distinct columns", d, p.patterns, width-d)
		}
		sc := p.NewScratch()
		gap := seq.DNA.GapMask()
		query := make([]uint32, width)
		for lo := 0; lo < width; lo++ {
			for hi := lo + 1; hi <= width; hi++ {
				for site := range query {
					query[site] = gap
					if site >= lo && site < hi {
						query[site] = 1 << uint(rng.Intn(4))
					}
				}
				runs := p.queryPatternRuns(query, true, sc)
				if d == 0 && len(runs) != 1 || len(runs) > 1+d {
					t.Fatalf("d=%d: window [%d,%d) gives %d runs %v", d, lo, hi, len(runs), runs)
				}
			}
		}
	}
}
