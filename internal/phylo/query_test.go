package phylo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"phylomem/internal/model"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// placementFixture bundles everything needed to score queries on branches.
type placementFixture struct {
	tr   *tree.Tree
	p    *Partition
	full *FullCLVSet
	rng  *rand.Rand
}

func newFixture(t *testing.T, seed int64, n, width int) *placementFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(n, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.DNA, width, rng)
	rates, err := model.GammaRates(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPartition(t, tr, msa, model.JC69(), rates)
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &placementFixture{tr: tr, p: p, full: full, rng: rng}
}

// midpointCLV computes the branch CLV at the midpoint of edge e.
func (fx *placementFixture) midpointCLV(e *tree.Edge) ([]float64, []int32) {
	p := fx.p
	dst := make([]float64, p.CLVLen())
	scale := make([]int32, p.ScaleLen())
	a, b := e.Nodes()
	pu := make([]float64, p.PLen())
	pv := make([]float64, p.PLen())
	p.FillP(pu, e.Length/2)
	p.FillP(pv, e.Length/2)
	p.UpdateCLVScratch(dst, scale, fx.full.Operand(fx.tr.DirOf(e, a)), fx.full.Operand(fx.tr.DirOf(e, b)), pu, pv, p.NewScratch())
	return dst, scale
}

func (fx *placementFixture) randomQuery(width int, gapFrac float64) []uint32 {
	q := make([]uint32, width)
	for i := range q {
		if fx.rng.Float64() < gapFrac {
			q[i] = seq.DNA.GapMask()
		} else {
			q[i] = 1 << uint(fx.rng.Intn(4))
		}
	}
	return q
}

// prescoreOne scores one query against a prescore row through the lookup
// kernel, as a one-query gap-skipping tile.
func prescoreOne(p *Partition, row []float64, bscale []int32, q []uint32) float64 {
	var out [1]float64
	p.PrescoreQueryBlock(row, bscale, p.AppendQueryTile(nil, [][]uint32{q}, true), 1, true, out[:])
	return out[0]
}

func TestPrescoreMatchesQueryLogLik(t *testing.T) {
	fx := newFixture(t, 31, 8, 50)
	pendant := 0.08
	ppend := make([]float64, fx.p.PLen())
	fx.p.FillP(ppend, pendant)
	row := make([]float64, fx.p.PrescoreRowLen())
	for _, e := range fx.tr.Edges[:5] {
		bclv, bscale := fx.midpointCLV(e)
		fx.p.BuildPrescoreRow(row, bclv, ppend)
		for trial := 0; trial < 5; trial++ {
			q := fx.randomQuery(fx.p.Comp.OriginalWidth(), 0.2)
			direct := fx.p.QueryLogLikScratch(bclv, bscale, q, ppend, true, fx.p.NewScratch())
			viaRow := prescoreOne(fx.p, row, bscale, q)
			if math.Abs(direct-viaRow) > 1e-9*(1+math.Abs(direct)) {
				t.Fatalf("edge %d trial %d: direct %.12f vs prescore %.12f", e.ID, trial, direct, viaRow)
			}
		}
	}
}

func TestQueryLogLikGapSkipShiftsByConstant(t *testing.T) {
	// Skipping gap sites must shift every branch's score by the same
	// constant (the reference-tree likelihood of the skipped sites), so the
	// ranking is unchanged.
	fx := newFixture(t, 37, 10, 60)
	pendant := 0.1
	ppend := make([]float64, fx.p.PLen())
	fx.p.FillP(ppend, pendant)
	q := fx.randomQuery(fx.p.Comp.OriginalWidth(), 0.3)
	var deltas []float64
	for _, e := range fx.tr.Edges {
		bclv, bscale := fx.midpointCLV(e)
		with := fx.p.QueryLogLikScratch(bclv, bscale, q, ppend, false, fx.p.NewScratch())
		without := fx.p.QueryLogLikScratch(bclv, bscale, q, ppend, true, fx.p.NewScratch())
		deltas = append(deltas, with-without)
	}
	for i := 1; i < len(deltas); i++ {
		if math.Abs(deltas[i]-deltas[0]) > 1e-7*(1+math.Abs(deltas[0])) {
			t.Fatalf("gap contribution is branch-dependent: %.12f vs %.12f", deltas[i], deltas[0])
		}
	}
}

func TestQueryLogLikAmbiguityIsSumOfStates(t *testing.T) {
	// For a single ambiguous site, the likelihood must equal the sum of the
	// likelihoods of the compatible concrete states (linearity of the tip
	// vector). Verified via the prescore row which is exactly additive.
	fx := newFixture(t, 41, 6, 30)
	ppend := make([]float64, fx.p.PLen())
	fx.p.FillP(ppend, 0.05)
	e := fx.tr.Edges[2]
	bclv, bscale := fx.midpointCLV(e)
	width := fx.p.Comp.OriginalWidth()
	base := fx.randomQuery(width, 0)

	qR := append([]uint32(nil), base...)
	qA := append([]uint32(nil), base...)
	qG := append([]uint32(nil), base...)
	qR[0] = 1 | 4 // R = A|G
	qA[0] = 1
	qG[0] = 4
	lr := fx.p.QueryLogLikScratch(bclv, bscale, qR, ppend, false, fx.p.NewScratch())
	la := fx.p.QueryLogLikScratch(bclv, bscale, qA, ppend, false, fx.p.NewScratch())
	lg := fx.p.QueryLogLikScratch(bclv, bscale, qG, ppend, false, fx.p.NewScratch())
	// Site contributions are logs; convert back for site 0 only: the other
	// sites are identical, so exp(lr - common) = exp(la - common) + exp(lg - common).
	common := la // use as reference point
	want := math.Log(math.Exp(la-common) + math.Exp(lg-common))
	got := lr - common
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ambiguity not additive: got %.12f, want %.12f", got, want)
	}
}

func TestQueryPlacementRecoversOrigin(t *testing.T) {
	// A query identical to an existing leaf must score best on (or adjacent
	// to) that leaf's pendant branch.
	rng := rand.New(rand.NewSource(53))
	tr, err := tree.Random(12, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Build an MSA with strong signal (long random sequences).
	msa := randomMSA(t, tr, seq.DNA, 200, rng)
	rates := model.UniformRates()
	p := buildPartition(t, tr, msa, model.JC69(), rates)
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx := &placementFixture{tr: tr, p: p, full: full, rng: rng}

	leaf := tr.Leaves()[3]
	q, err := seq.DNA.Encode(msa.Sequences[msa.Index(leaf.Name)].Data)
	if err != nil {
		t.Fatal(err)
	}
	ppend := make([]float64, p.PLen())
	p.FillP(ppend, 0.01)
	best, bestScore := -1, math.Inf(-1)
	for _, e := range tr.Edges {
		bclv, bscale := fx.midpointCLV(e)
		score := p.QueryLogLikScratch(bclv, bscale, q, ppend, true, p.NewScratch())
		if score > bestScore {
			best, bestScore = e.ID, score
		}
	}
	if best != leaf.Edges[0].ID {
		t.Fatalf("identical query placed on edge %d, want pendant edge %d of its origin leaf", best, leaf.Edges[0].ID)
	}
}

func TestQueryLogLikPendantMonotonicityForIdenticalQuery(t *testing.T) {
	// For a query identical to a leaf placed on its own pendant branch, a
	// shorter pendant length must not decrease the likelihood.
	fx := newFixture(t, 59, 8, 150)
	leaf := fx.tr.Leaves()[0]
	row := fx.p.Comp.TaxonIndex(leaf.Name)
	q := append([]uint32(nil), fx.p.Comp.Patterns[row]...)
	// Expand pattern codes back to site codes.
	qs := make([]uint32, fx.p.Comp.OriginalWidth())
	for site, pat := range fx.p.Comp.SiteToPattern {
		qs[site] = q[pat]
	}
	e := leaf.Edges[0]
	bclv, bscale := fx.midpointCLV(e)
	prev := math.Inf(-1)
	for _, pend := range []float64{0.5, 0.1, 0.02, 0.004} {
		ppend := make([]float64, fx.p.PLen())
		fx.p.FillP(ppend, pend)
		score := fx.p.QueryLogLikScratch(bclv, bscale, qs, ppend, true, fx.p.NewScratch())
		if score < prev-1e-9 {
			t.Fatalf("identical query score decreased when pendant shrank: %g after %g", score, prev)
		}
		prev = score
	}
}

// exactLog returns log Π liks[i]·2^(−256·counts[i]) through an exact math/big
// product: the log of its float64-rounded mantissa plus its exponent times a
// 100-digit ln 2, summed at 256 bits — within 2e-16 of the true value.
func exactLog(liks []float64, counts []int32) float64 {
	const prec = 4096 // each factor has 53 bits; rounding at 4096 is noise far below 1e-300
	prod := new(big.Float).SetPrec(prec).SetFloat64(1)
	factor := new(big.Float).SetPrec(prec)
	for i, l := range liks {
		prod.Mul(prod, factor.SetMantExp(new(big.Float).SetFloat64(l), -256*int(counts[i])))
	}
	mant := new(big.Float)
	exp := prod.MantExp(mant)
	m, _ := mant.Float64()
	ln2, _, err := big.ParseFloat("0.6931471805599453094172321214581765680755001343602552541206800094933936219696947156058633269964186875", 10, 256, big.ToNearestEven)
	if err != nil {
		panic(err)
	}
	sum := new(big.Float).SetPrec(256).SetInt64(int64(exp))
	sum.Mul(sum, ln2).Add(sum, new(big.Float).SetFloat64(math.Log(m)))
	out, _ := sum.Float64()
	return out
}

// TestLogProductMoreAccurateThanSumOfLogs: against an exact math/big product,
// phase 2's one-log fold is never less accurate than the sum of per-site logs
// it replaced. Per list size, 200 random lists of site likelihoods in
// [e^−6, 1], what reads see (TestLogProductBitwise covers scale counts); the
// worst error of each fold is logged.
func TestLogProductMoreAccurateThanSumOfLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, n := range []int{210, 800, 5000} {
		worstProduct, worstSum := 0.0, 0.0
		liks, counts := make([]float64, n), make([]int32, n)
		for list := 0; list < 200; list++ {
			for i := range liks {
				liks[i] = math.Exp(-6 * rng.Float64())
			}
			want := exactLog(liks, counts)
			worstProduct = max(worstProduct, math.Abs(productLog(liks, counts)-want))
			worstSum = max(worstSum, math.Abs(sumOfLogs(liks, counts)-want))
		}
		t.Logf("%5d sites: worst |error| sum of logs %.3g, one log %.3g", n, worstSum, worstProduct)
		if worstProduct > worstSum {
			t.Errorf("%d sites: one log is off by up to %.3g, the sum of logs by %.3g", n, worstProduct, worstSum)
		}
	}
}

// TestLogProductBitwise: a zero site likelihood makes the product's log
// −Inf, and NaN stays NaN, whatever follows; a subnormal site, a site that
// drives the product below the smallest float64, and a scale count all fold
// in exactly — the log carries the same bits as for the same values
// rescaled by powers of two into the normal range, with the powers moved
// into the scale counts.
func TestLogProductBitwise(t *testing.T) {
	if got := productLog([]float64{0.3, 0, 0.5}, []int32{0, 0, 1}); !math.IsInf(got, -1) {
		t.Errorf("a zero site gives %v, want -Inf", got)
	}
	if got := productLog([]float64{0.3, math.NaN(), 0}, []int32{0, 0, 0}); !math.IsNaN(got) {
		t.Errorf("a NaN site gives %v, want NaN", got)
	}
	if got := productLog(nil, nil); got != 0 {
		t.Errorf("the empty product's log is %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		liks, counts := make([]float64, n), make([]int32, n)
		scaled, scaledCounts := make([]float64, n), make([]int32, n)
		for i := range liks {
			b := rng.Intn(1074) // down to the smallest subnormal binade
			l := (0.5 + rng.Float64()) * math.Ldexp(1, -b)
			c := int32(rng.Intn(3))
			// The same factor k·256 binades higher, with k more scale counts,
			// staying below 2^512.
			k := 1 + rng.Intn((511+b)/256)
			liks[i], counts[i] = l, c
			scaled[i], scaledCounts[i] = math.Ldexp(l, 256*k), c+int32(k)
			if math.Ldexp(scaled[i], -256*k) != l {
				t.Fatalf("%v·2^%d is not exact", l, 256*k)
			}
		}
		got, want := productLog(liks, counts), productLog(scaled, scaledCounts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: %v with subnormals, %v rescaled (Δ %g)", trial, got, want, got-want)
		}
		if exact := exactLog(liks, counts); math.Abs(got-exact) > 1e-12*max(1, math.Abs(exact)) {
			t.Fatalf("trial %d: %v, exact product %v", trial, got, exact)
		}
	}
}

// eagerLogProduct is logProduct as it was before mul normalised lazily: the
// product's exponent moves into e after every site. It is the reference the
// lazy fold must reproduce bit for bit.
type eagerLogProduct struct {
	m float64
	e int64
}

func (a *eagerLogProduct) mul(site float64, c int32) {
	x := a.m * site
	bits := math.Float64bits(x)
	if f := bits >> 52; f-1 < 0x7fe { // positive and normal
		a.e += int64(f) - (1023 + 511) - 256*int64(c)
		x = math.Float64frombits(bits&^expField | expHigh)
	}
	a.m = x
}

func (a eagerLogProduct) log() float64 { return math.Log(a.m*0x1p-511) + float64(a.e)*math.Ln2 }

// checkLazyFold folds sites into a lazy and an eager product and requires
// the same log bits after every site (two NaNs count as equal).
func checkLazyFold(t *testing.T, label string, sites []float64, counts []int32) {
	t.Helper()
	lazy, eager := newLogProduct(), eagerLogProduct{m: 0x1p511}
	for i, l := range sites {
		lazy.mul(l, counts[i])
		eager.mul(l, counts[i])
		got, want := lazy.log(), eager.log()
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s: after site %d (%v, count %d): lazy %v, eager %v", label, i, l, counts[i], got, want)
		}
	}
}

// TestLogProductLazyMatchesEager: normalising only when the mantissa leaves
// [2^53, 2^512) gives the bits of normalising after every site, on sequences
// that cross both window edges — runs of tiny sites that drive the mantissa
// below 2^53, sites near 2^511 that drive it above 2^512 — with subnormal
// sites, scale counts up to 3, and a 0, NaN or +Inf site somewhere.
func TestLogProductLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	site := func(regime int) float64 {
		switch regime {
		case 0: // what reads see
			return math.Exp(-6 * rng.Float64())
		case 1: // near 2^511, just under the precondition's bound
			return math.Ldexp(1+rng.Float64(), 510+rng.Intn(2))
		case 2: // subnormal
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<30))
		default: // anywhere in between
			return math.Ldexp(0.5+rng.Float64(), rng.Intn(1022)-1021+rng.Intn(512))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		sites, counts := make([]float64, n), make([]int32, n)
		regime := rng.Intn(4)
		for i := range sites {
			if rng.Intn(10) == 0 {
				regime = rng.Intn(4) // runs of one regime cross the window's edges
			}
			sites[i], counts[i] = site(regime), int32(rng.Intn(4))
		}
		if trial%4 == 0 {
			sites[rng.Intn(n)] = []float64{0, math.NaN(), math.Inf(1)}[rng.Intn(3)]
		}
		checkLazyFold(t, fmt.Sprintf("trial %d", trial), sites, counts)
	}
	edges := [][]float64{
		{0x1p-459},             // 2^511 · 2^-459 = 2^52: just below the window
		{0x1p-458},             // exactly 2^53: inside
		{math.Nextafter(2, 0)}, // just below 2^512
		{2},                    // exactly 2^512: outside
		{0x1p511, 0x1p511, 0x1p-1074},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 3},
		{math.Inf(1), 0}, // Inf then 0: NaN
		{0.5, math.NaN(), 0x1p511},
	}
	for i, sites := range edges {
		checkLazyFold(t, fmt.Sprintf("edge %d", i), sites, make([]int32, len(sites)))
	}
}

// FuzzLogProduct holds the lazy fold to the eager one on arbitrary bits:
// each 9-byte record is a site likelihood and its scale count (0–3). The
// sign is dropped and a finite site at or above 2^512 is moved 2^1024 lower,
// so every site is in [0, 2^512), +Inf or NaN — mul's precondition.
func FuzzLogProduct(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xe0?\x01\x00\x00\x00\x00\x00\x00\x00\x00\x03"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x5f\x00\x00\x00\x00\x00\x00\x00\xf0\x5f\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 9
		sites, counts := make([]float64, n), make([]int32, n)
		for i := range sites {
			bits := binary.LittleEndian.Uint64(raw[9*i:]) &^ (1 << 63)
			if exp := bits >> 52; exp >= 1023+512 && exp < 0x7ff {
				bits -= 1024 << 52
			}
			sites[i], counts[i] = math.Float64frombits(bits), int32(raw[9*i+8]%4)
		}
		checkLazyFold(t, "fuzz", sites, counts)
	})
}

func TestPrescoreRowProperty(t *testing.T) {
	// Property: prescore row and direct scoring agree for random fixtures.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := tree.Random(4+rng.Intn(6), 0.2, rng)
		if err != nil {
			return false
		}
		var seqs []seq.Sequence
		for _, leaf := range tr.Leaves() {
			data := make([]byte, 20)
			for i := range data {
				data[i] = "ACGT"[rng.Intn(4)]
			}
			seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
		}
		msa, err := seq.NewMSA(seq.DNA, seqs)
		if err != nil {
			return false
		}
		comp, err := seq.Compress(msa)
		if err != nil {
			return false
		}
		p, err := NewPartition(model.JC69(), model.UniformRates(), comp, tr)
		if err != nil {
			return false
		}
		full, err := ComputeFullCLVSet(p, tr, nil)
		if err != nil {
			return false
		}
		e := tr.Edges[rng.Intn(len(tr.Edges))]
		a, b := e.Nodes()
		dst := make([]float64, p.CLVLen())
		scale := make([]int32, p.ScaleLen())
		pu := make([]float64, p.PLen())
		pv := make([]float64, p.PLen())
		p.FillP(pu, e.Length/2)
		p.FillP(pv, e.Length/2)
		p.UpdateCLVScratch(dst, scale, full.Operand(tr.DirOf(e, a)), full.Operand(tr.DirOf(e, b)), pu, pv, p.NewScratch())
		ppend := make([]float64, p.PLen())
		p.FillP(ppend, 0.07)
		row := make([]float64, p.PrescoreRowLen())
		p.BuildPrescoreRow(row, dst, ppend)
		q := make([]uint32, 20)
		for i := range q {
			q[i] = 1 << uint(rng.Intn(4))
		}
		d := p.QueryLogLikScratch(dst, scale, q, ppend, true, p.NewScratch())
		v := prescoreOne(p, row, scale, q)
		return math.Abs(d-v) < 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// prescoreRowLoop is BuildPrescoreRow as a loop over (r, s) that skips zero
// weights — the form the CombineRows version replaced.
func prescoreRowLoop(p *Partition, dst, bclv, ppend []float64) {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	for pat := 0; pat < p.patterns; pat++ {
		out := dst[pat*S : pat*S+S]
		clear(out)
		for r := 0; r < R; r++ {
			for s := 0; s < S; s++ {
				w := p.Rates.Weights[r] * pi[s] * bclv[(pat*R+r)*S+s]
				if w == 0 {
					continue
				}
				for sp := 0; sp < S; sp++ {
					out[sp] += w * ppend[(r*S+s)*S+sp]
				}
			}
		}
	}
}

// TestBuildPrescoreRowMatchesLoopBitwise: one CombineRows per pattern gives
// the zero-skipping loop's bits for every alphabet and rate count, on branch
// CLVs with zero entries (a zero weight adds +0 to a chain that never holds
// −0) and at pendant lengths from 0 to saturation. Five AA rates take the
// allocated coefficient buffer.
func TestBuildPrescoreRowMatchesLoopBitwise(t *testing.T) {
	g5, err := model.GammaRates(0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := append(kernelCases(t), kernelCase{"AA-SYN-5rates", seq.AA, model.SyntheticAA(), g5})
	for _, kc := range cases {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			p := kernelPartition(t, kc, rng)
			bclv := randCLVOperand(p, rng, false).CLV
			for i := range bclv {
				if rng.Intn(3) == 0 {
					bclv[i] = 0
				}
			}
			ppend := make([]float64, p.PLen())
			want, got := make([]float64, p.PrescoreRowLen()), make([]float64, p.PrescoreRowLen())
			for _, pendant := range []float64{0, 1e-6, 0.05, 0.7, 40} {
				p.FillP(ppend, pendant)
				prescoreRowLoop(p, want, bclv, ppend)
				p.BuildPrescoreRow(got, bclv, ppend)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("pendant %g: row[%d] = %v, loop %v", pendant, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPrescoreRow4MatchesCombineRowsBitwise: the 4-state, 4-rate prescore
// row gives the generic per-pattern CombineRows loop's bits, on branch CLVs
// with zero and subnormal-scale entries, at pendant lengths from 0 to
// saturation, under no mask, a random mask and an empty one. Entries of
// patterns outside the mask must keep what they held.
func TestPrescoreRow4MatchesCombineRowsBitwise(t *testing.T) {
	kc := kernelCases(t)[2]
	if kc.alphabet.States() != 4 || kc.model.States() != 4 {
		t.Fatalf("case %s is not a 4-state case", kc.name)
	}
	rng := rand.New(rand.NewSource(31))
	p := kernelPartition(t, kc, rng)
	if p.nrates != 4 {
		t.Fatalf("case %s has %d rates, want 4", kc.name, p.nrates)
	}
	bclv := randCLVOperand(p, rng, false).CLV
	for i := range bclv {
		switch rng.Intn(4) {
		case 0:
			bclv[i] = 0
		case 1:
			bclv[i] = math.Ldexp(bclv[i], -1000)
		}
	}
	random := make([]uint32, p.patterns)
	for i := range random {
		random[i] = uint32(rng.Intn(2)) << rng.Intn(4)
	}
	ppend := make([]float64, p.PLen())
	want, got := make([]float64, p.PrescoreRowLen()), make([]float64, p.PrescoreRowLen())
	for _, pendant := range []float64{0, 1e-6, 0.05, 0.7, 40} {
		p.FillP(ppend, pendant)
		for mi, mask := range [][]uint32{nil, random, make([]uint32, p.patterns)} {
			for i := range want {
				want[i], got[i] = math.NaN(), math.NaN()
			}
			p.prescoreRowCombine(want, bclv, ppend, mask)
			p.prescoreRow4(got, bclv, ppend, mask)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("pendant %g mask %d: row[%d] = %v, CombineRows %v", pendant, mi, i, got[i], want[i])
				}
			}
		}
	}
}
