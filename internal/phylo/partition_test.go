package phylo

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"phylomem/internal/model"
	"phylomem/internal/parallel"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// randomMSA builds a random alignment over the tree's leaf names.
func randomMSA(t *testing.T, tr *tree.Tree, a *seq.Alphabet, width int, rng *rand.Rand) *seq.MSA {
	t.Helper()
	chars := "ACGT"
	if a.States() == 20 {
		chars = "ARNDCQEGHILKMFPSTWYV"
	}
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, width)
		for i := range data {
			if rng.Float64() < 0.05 {
				data[i] = '-'
			} else {
				data[i] = chars[rng.Intn(len(chars))]
			}
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	m, err := seq.NewMSA(a, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildPartition(t *testing.T, tr *tree.Tree, msa *seq.MSA, m *model.Model, rates *model.RateHet) *Partition {
	t.Helper()
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(m, rates, comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naiveSiteLogLik is an independent, slow implementation of the phylogenetic
// likelihood: per original site, per rate category, full recursion, no
// pattern compression and no scaling. It cross-validates every kernel in
// this package.
func naiveLogLik(tr *tree.Tree, msa *seq.MSA, m *model.Model, rates *model.RateHet) float64 {
	s := m.States()
	a := msa.Alphabet
	eval := tr.Edges[0]
	total := 0.0
	for site := 0; site < msa.Width(); site++ {
		siteL := 0.0
		for r := 0; r < rates.NumRates(); r++ {
			rate := rates.Rates[r]
			var partial func(d tree.Dir) []float64
			partial = func(d tree.Dir) []float64 {
				u := tr.Tail(d)
				out := make([]float64, s)
				if u.IsLeaf() {
					row := msa.Index(u.Name)
					code, _ := a.Code(msa.Sequences[row].Data[site])
					for st := 0; st < s; st++ {
						if code&(1<<uint(st)) != 0 {
							out[st] = 1
						}
					}
					return out
				}
				ca, cb := tr.Children(d)
				va, vb := partial(ca), partial(cb)
				pa := make([]float64, s*s)
				pb := make([]float64, s*s)
				m.TransitionMatrix(pa, tr.EdgeOf(ca).Length, rate)
				m.TransitionMatrix(pb, tr.EdgeOf(cb).Length, rate)
				for st := 0; st < s; st++ {
					xa, xb := 0.0, 0.0
					for sp := 0; sp < s; sp++ {
						xa += pa[st*s+sp] * va[sp]
						xb += pb[st*s+sp] * vb[sp]
					}
					out[st] = xa * xb
				}
				return out
			}
			na, nb := eval.Nodes()
			va := partial(tr.DirOf(eval, na))
			vb := partial(tr.DirOf(eval, nb))
			pm := make([]float64, s*s)
			m.TransitionMatrix(pm, eval.Length, rate)
			lr := 0.0
			for st := 0; st < s; st++ {
				inner := 0.0
				for sp := 0; sp < s; sp++ {
					inner += pm[st*s+sp] * vb[sp]
				}
				lr += m.Freqs()[st] * va[st] * inner
			}
			siteL += rates.Weights[r] * lr
		}
		total += math.Log(siteL)
	}
	return total
}

func TestPartitionDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := tree.Random(8, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.DNA, 100, rng)
	rates, err := model.GammaRates(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPartition(t, tr, msa, model.JC69(), rates)
	if p.States() != 4 || p.NumRates() != 4 {
		t.Fatalf("states/rates = %d/%d", p.States(), p.NumRates())
	}
	if p.CLVLen() != p.NumPatterns()*16 {
		t.Fatalf("CLVLen = %d", p.CLVLen())
	}
	if p.CLVBytes() != int64(p.CLVLen())*8+int64(p.NumPatterns())*4 {
		t.Fatalf("CLVBytes = %d", p.CLVBytes())
	}
	if p.PLen() != 4*16 {
		t.Fatalf("PLen = %d", p.PLen())
	}
	if err := p.CheckTreeCompatible(tr); err != nil {
		t.Fatal(err)
	}
}

func TestNewPartitionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, err := tree.Random(5, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.DNA, 20, rng)
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	// AA model over DNA alignment must fail.
	if _, err := NewPartition(model.PoissonAA(), model.UniformRates(), comp, tr); err == nil {
		t.Error("state-count mismatch accepted")
	}
	// Missing taxon must fail.
	short := *msa
	short.Sequences = msa.Sequences[1:]
	compShort, err := seq.Compress(&short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(model.JC69(), model.UniformRates(), compShort, tr); err == nil {
		t.Error("missing taxon accepted")
	}
	// Two leaves of one name would read one alignment row: must fail, naming it.
	dup, err := tree.ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,A:0.1):0.1,D:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []seq.Sequence
	for _, name := range []string{"A", "B", "C", "D"} {
		seqs = append(seqs, seq.Sequence{Label: name, Data: []byte("ACGTAC")})
	}
	dupMSA, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	compDup, err := seq.Compress(dupMSA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(model.JC69(), model.UniformRates(), compDup, dup); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("duplicate leaf name: err = %v, want an error naming \"A\"", err)
	}
}

func TestLikelihoodMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		tr, err := tree.Random(n, 0.15, rng)
		if err != nil {
			return false
		}
		msa := randomMSA(t, tr, seq.DNA, 30, rng)
		rates, err := model.GammaRates(0.7, 3)
		if err != nil {
			return false
		}
		gtr, err := model.GTR([]float64{0.3, 0.2, 0.25, 0.25}, []float64{1, 2, 0.5, 0.8, 3, 1})
		if err != nil {
			return false
		}
		p := buildPartition(t, tr, msa, gtr, rates)
		full, err := ComputeFullCLVSet(p, tr, nil)
		if err != nil {
			return false
		}
		got := full.TreeLogLik(tr.Edges[0])
		want := naiveLogLik(tr, msa, gtr, rates)
		return math.Abs(got-want) < 1e-8*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLikelihoodEdgeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := tree.Random(12, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.DNA, 60, rng)
	rates, err := model.GammaRates(1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPartition(t, tr, msa, model.JC69(), rates)
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := full.TreeLogLik(tr.Edges[0])
	for _, e := range tr.Edges {
		if got := full.TreeLogLik(e); math.Abs(got-ref) > 1e-8*(1+math.Abs(ref)) {
			t.Fatalf("loglik at edge %d = %.12f, want %.12f", e.ID, got, ref)
		}
	}
}

func TestLikelihoodAminoAcid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr, err := tree.Random(6, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	msa := randomMSA(t, tr, seq.AA, 25, rng)
	rates := model.UniformRates()
	m := model.SyntheticAA()
	p := buildPartition(t, tr, msa, m, rates)
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := full.TreeLogLik(tr.Edges[0])
	want := naiveLogLik(tr, msa, m, rates)
	if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
		t.Fatalf("AA loglik = %.10f, naive = %.10f", got, want)
	}
}

func TestScalingOnDeepTree(t *testing.T) {
	// A deep caterpillar with enough taxa forces CLV entries below the
	// scaling threshold; the loglik must stay finite and edge-invariant.
	tr, err := tree.Caterpillar(400, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	msa := randomMSA(t, tr, seq.DNA, 12, rng)
	p := buildPartition(t, tr, msa, model.JC69(), model.UniformRates())
	full, err := ComputeFullCLVSet(p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaled := false
	for _, c := range full.scales {
		if c > 0 {
			scaled = true
			break
		}
	}
	if !scaled {
		t.Fatal("deep tree produced no scaling events; threshold logic untested")
	}
	ref := full.TreeLogLik(tr.Edges[0])
	if math.IsInf(ref, 0) || math.IsNaN(ref) {
		t.Fatalf("loglik not finite: %g", ref)
	}
	for _, e := range []int{1, len(tr.Edges) / 2, len(tr.Edges) - 1} {
		if got := full.TreeLogLik(tr.Edges[e]); math.Abs(got-ref) > 1e-6*math.Abs(ref) {
			t.Fatalf("scaled loglik differs across edges: %g vs %g", got, ref)
		}
	}
}

// TestFillCLVsBitIdenticalAcrossWorkers fills the full CLV set with no pool
// and with pools of 1, 2, 3 and 8 workers, and requires every CLV and scale
// counter bit-equal to the inline fill. The trees are a random one, whose
// levels are many CLVs wide, and a caterpillar, whose levels hold one or two
// CLVs and so mostly run inline. It also checks the level schedule itself:
// every CLV once, each after both of its operands.
func TestFillCLVsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	random, err := tree.Random(24, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	caterpillar, err := tree.Caterpillar(12, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := model.GammaRates(0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
	}{{"random", random}, {"caterpillar", caterpillar}} {
		wantLevels := checkCLVLevels(t, tc.name, tc.tr)
		for _, kind := range []struct {
			name     string
			alphabet *seq.Alphabet
			model    *model.Model
		}{{"NT-G4", seq.DNA, model.JC69()}, {"AA-G4", seq.AA, model.SyntheticAA()}} {
			label := tc.name + "/" + kind.name
			p := buildPartition(t, tc.tr, randomMSA(t, tc.tr, kind.alphabet, 120, rng), kind.model, g4)
			want, err := ComputeFullCLVSet(p, tc.tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				pool := parallel.New(workers)
				got := &FullCLVSet{part: p, tr: tc.tr, clvs: make([]float64, len(want.clvs)), scales: make([]int32, len(want.scales))}
				levels, kernel := FillCLVs(p, tc.tr, got.clvs, got.scales, pool)
				pool.Close()
				if levels != wantLevels || kernel <= 0 {
					t.Fatalf("%s workers=%d: %d levels, kernel time %v; want %d levels and a positive time", label, workers, levels, kernel, wantLevels)
				}
				for i := range want.clvs {
					if math.Float64bits(got.clvs[i]) != math.Float64bits(want.clvs[i]) {
						t.Fatalf("%s workers=%d: CLV value %d is %v, inline %v", label, workers, i, got.clvs[i], want.clvs[i])
					}
				}
				for i := range want.scales {
					if got.scales[i] != want.scales[i] {
						t.Fatalf("%s workers=%d: scale %d is %d, inline %d", label, workers, i, got.scales[i], want.scales[i])
					}
				}
			}
		}
	}
}

// checkCLVLevels requires clvLevels to list every inner CLV exactly once and
// each CLV in a later level than both of its inner operands, and returns the
// number of levels.
func checkCLVLevels(t *testing.T, name string, tr *tree.Tree) int {
	t.Helper()
	levels := clvLevels(tr)
	levelOf := make([]int, tr.NumInnerCLVs())
	for l, level := range levels {
		for _, idx := range level {
			if levelOf[idx] != 0 {
				t.Fatalf("%s: CLV %d in levels %d and %d", name, idx, levelOf[idx], l+1)
			}
			levelOf[idx] = l + 1
		}
	}
	for idx, l := range levelOf {
		if l == 0 {
			t.Fatalf("%s: CLV %d in no level", name, idx)
		}
		a, b := tr.Children(tr.DirOfCLV(idx))
		for _, d := range []tree.Dir{a, b} {
			if !tr.Tail(d).IsLeaf() && levelOf[tr.CLVIndex(d)] >= l {
				t.Fatalf("%s: CLV %d at level %d reads CLV %d at level %d", name, idx, l, tr.CLVIndex(d), levelOf[tr.CLVIndex(d)])
			}
		}
	}
	return len(levels)
}
