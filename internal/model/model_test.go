package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allModels(t *testing.T) []*Model {
	t.Helper()
	k80, err := K80(2.5)
	if err != nil {
		t.Fatal(err)
	}
	hky, err := HKY85([]float64{0.3, 0.2, 0.2, 0.3}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	gtr, err := GTR([]float64{0.35, 0.15, 0.25, 0.25}, []float64{1.2, 3.1, 0.8, 0.9, 2.7, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	return []*Model{JC69(), k80, hky, gtr, PoissonAA(), SyntheticAA()}
}

func pmatrix(m *Model, t, rate float64) []float64 {
	p := make([]float64, m.States()*m.States())
	m.TransitionMatrix(p, t, rate)
	return p
}

// transitionMatrixRef is TransitionMatrix as it was before its columns were
// blocked: one column at a time, accumulated in dst, k ascending. It returns
// how many entries the clamp set to zero.
func transitionMatrixRef(m *Model, dst []float64, t, rate float64) (clamped int) {
	s := m.states
	tt := max(t*rate, 0)
	exps := make([]float64, s)
	for k := range exps {
		exps[k] = math.Exp(m.evals[k] * tt)
	}
	for i := 0; i < s; i++ {
		ri := m.right[i*s : i*s+s]
		di := dst[i*s : i*s+s]
		for j := range di {
			di[j] = 0
		}
		for k := 0; k < s; k++ {
			w := ri[k] * exps[k]
			lk := m.left[k*s : k*s+s]
			for j := 0; j < s; j++ {
				di[j] += w * lk[j]
			}
		}
		for j := range di {
			if di[j] < 0 {
				di[j] = 0
				clamped++
			}
		}
	}
	return clamped
}

// TestTransitionMatrixMatchesColumnLoopBitwise: the column-blocked
// TransitionMatrix reproduces the one-column loop bit for bit — at 4, 5 and 20
// states (5 leaves a column outside the blocks of four), under one rate and
// under Γ4's rates, from t = 0 to saturation, and at the short lengths where
// round-off drives entries below zero and the clamp fires.
func TestTransitionMatrixMatchesColumnLoopBitwise(t *testing.T) {
	gtr, err := GTR([]float64{0.35, 0.15, 0.25, 0.25}, []float64{1.2, 3.1, 0.8, 0.9, 2.7, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	freqs, exch := make([]float64, 5), make([]float64, 25)
	for i := range freqs {
		freqs[i] = 0.2
		for j := i + 1; j < 5; j++ {
			exch[i*5+j] = 0.3 + 2*rng.Float64()
			exch[j*5+i] = exch[i*5+j]
		}
	}
	five, err := NewReversible("five", freqs, exch)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	clamped := 0
	for _, m := range []*Model{gtr, five, SyntheticAA()} {
		for _, rates := range []*RateHet{UniformRates(), g4} {
			for _, rate := range rates.Rates {
				for _, bl := range []float64{0, 1e-8, 1e-3, 0.1, 2, 50} {
					got, want := pmatrix(m, bl, rate), make([]float64, m.States()*m.States())
					clamped += transitionMatrixRef(m, want, bl, rate)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s P(%g, rate %g)[%d] = %v, column loop %v", m.Name(), bl, rate, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no entry was clamped: the short-branch leg is vacuous")
	}
}

func TestTransitionMatrixRowsSumToOne(t *testing.T) {
	for _, m := range allModels(t) {
		for _, bl := range []float64{0, 1e-6, 0.01, 0.1, 1, 10, 100} {
			p := pmatrix(m, bl, 1)
			s := m.States()
			for i := 0; i < s; i++ {
				row := 0.0
				for j := 0; j < s; j++ {
					v := p[i*s+j]
					if v < 0 || v > 1+1e-9 {
						t.Fatalf("%s P(%g)[%d,%d] = %g out of [0,1]", m.Name(), bl, i, j, v)
					}
					row += v
				}
				if math.Abs(row-1) > 1e-9 {
					t.Fatalf("%s P(%g) row %d sums to %g", m.Name(), bl, i, row)
				}
			}
		}
	}
}

func TestTransitionMatrixAtZeroIsIdentity(t *testing.T) {
	for _, m := range allModels(t) {
		p := pmatrix(m, 0, 1)
		s := m.States()
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p[i*s+j]-want) > 1e-9 {
					t.Fatalf("%s P(0)[%d,%d] = %g, want %g", m.Name(), i, j, p[i*s+j], want)
				}
			}
		}
	}
}

func TestTransitionMatrixLongBranchIsStationary(t *testing.T) {
	for _, m := range allModels(t) {
		p := pmatrix(m, 500, 1)
		s := m.States()
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if math.Abs(p[i*s+j]-m.Freqs()[j]) > 1e-6 {
					t.Fatalf("%s P(∞)[%d,%d] = %g, want π_j = %g", m.Name(), i, j, p[i*s+j], m.Freqs()[j])
				}
			}
		}
	}
}

func TestDetailedBalance(t *testing.T) {
	for _, m := range allModels(t) {
		p := pmatrix(m, 0.37, 1)
		s := m.States()
		pi := m.Freqs()
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				lhs, rhs := pi[i]*p[i*s+j], pi[j]*p[j*s+i]
				if math.Abs(lhs-rhs) > 1e-10 {
					t.Fatalf("%s detailed balance violated at (%d,%d): %g vs %g", m.Name(), i, j, lhs, rhs)
				}
			}
		}
	}
}

func TestChapmanKolmogorov(t *testing.T) {
	for _, m := range allModels(t) {
		s := m.States()
		p1 := pmatrix(m, 0.2, 1)
		p2 := pmatrix(m, 0.5, 1)
		p3 := pmatrix(m, 0.7, 1)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				sum := 0.0
				for k := 0; k < s; k++ {
					sum += p1[i*s+k] * p2[k*s+j]
				}
				if math.Abs(sum-p3[i*s+j]) > 1e-9 {
					t.Fatalf("%s Chapman-Kolmogorov violated at (%d,%d): %g vs %g", m.Name(), i, j, sum, p3[i*s+j])
				}
			}
		}
	}
}

func TestRateScalingEquivalence(t *testing.T) {
	m := JC69()
	a := pmatrix(m, 0.3, 2.0)
	b := pmatrix(m, 0.6, 1.0)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("P(0.3, rate 2) != P(0.6): %g vs %g", a[i], b[i])
		}
	}
}

func TestExpectedRateIsOne(t *testing.T) {
	// d/dt Σ_i π_i P_ii(t) at t→0 should be -1 for a normalized model.
	for _, m := range allModels(t) {
		const h = 1e-7
		p := pmatrix(m, h, 1)
		s := m.States()
		diag := 0.0
		for i := 0; i < s; i++ {
			diag += m.Freqs()[i] * p[i*s+i]
		}
		rate := (1 - diag) / h
		if math.Abs(rate-1) > 1e-4 {
			t.Fatalf("%s expected substitution rate = %g, want 1", m.Name(), rate)
		}
	}
}

func TestJC69ClosedForm(t *testing.T) {
	// JC69 has the closed form P_ii = 1/4 + 3/4 e^{-4t/3}.
	m := JC69()
	for _, bl := range []float64{0.05, 0.2, 1.0} {
		p := pmatrix(m, bl, 1)
		same := 0.25 + 0.75*math.Exp(-4*bl/3)
		diff := 0.25 - 0.25*math.Exp(-4*bl/3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				if math.Abs(p[i*4+j]-want) > 1e-10 {
					t.Fatalf("JC69 P(%g)[%d,%d] = %g, want %g", bl, i, j, p[i*4+j], want)
				}
			}
		}
	}
}

func TestK80TransitionBias(t *testing.T) {
	m, err := K80(8)
	if err != nil {
		t.Fatal(err)
	}
	p := pmatrix(m, 0.2, 1)
	// A→G (transition, indices 0→2) must exceed A→C (transversion, 0→1).
	if p[0*4+2] <= p[0*4+1] {
		t.Fatalf("K80 transition %g not greater than transversion %g", p[0*4+2], p[0*4+1])
	}
}

func TestNewReversibleValidation(t *testing.T) {
	if _, err := NewReversible("x", []float64{1}, []float64{1}); err == nil {
		t.Error("single state accepted")
	}
	if _, err := NewReversible("x", []float64{0.5, 0.5}, []float64{0, 1, 1, 0, 0, 0}); err == nil {
		t.Error("wrong exch size accepted")
	}
	if _, err := NewReversible("x", []float64{0.5, 0.6}, []float64{0, 1, 1, 0}); err == nil {
		t.Error("frequencies summing to 1.1 accepted")
	}
	if _, err := NewReversible("x", []float64{-0.5, 1.5}, []float64{0, 1, 1, 0}); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := NewReversible("x", []float64{0.5, 0.5}, []float64{0, 1, 2, 0}); err == nil {
		t.Error("asymmetric exchangeabilities accepted")
	}
	if _, err := NewReversible("x", []float64{0.5, 0.5}, []float64{0, -1, -1, 0}); err == nil {
		t.Error("negative exchangeability accepted")
	}
	if _, err := K80(0); err == nil {
		t.Error("K80 kappa=0 accepted")
	}
	if _, err := HKY85([]float64{0.25, 0.25, 0.25, 0.25}, -1); err == nil {
		t.Error("HKY85 negative kappa accepted")
	}
	if _, err := GTR([]float64{0.25, 0.25, 0.25, 0.25}, []float64{1, 1, 1}); err == nil {
		t.Error("GTR with 3 rates accepted")
	}
}

func TestGTRRandomProperty(t *testing.T) {
	// Property: random GTR models always produce stochastic P matrices
	// satisfying detailed balance.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		freqs := make([]float64, 4)
		sum := 0.0
		for i := range freqs {
			freqs[i] = 0.05 + r.Float64()
			sum += freqs[i]
		}
		for i := range freqs {
			freqs[i] /= sum
		}
		rates := make([]float64, 6)
		for i := range rates {
			rates[i] = 0.1 + 5*r.Float64()
		}
		m, err := GTR(freqs, rates)
		if err != nil {
			return false
		}
		bl := 0.01 + r.Float64()
		p := make([]float64, 16)
		m.TransitionMatrix(p, bl, 1)
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				row += p[i*4+j]
				if math.Abs(freqs[i]*p[i*4+j]-freqs[j]*p[j*4+i]) > 1e-9 {
					return false
				}
			}
			if math.Abs(row-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaRates(t *testing.T) {
	rh, err := GammaRates(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rh.NumRates() != 4 {
		t.Fatalf("NumRates = %d", rh.NumRates())
	}
	wsum, mean := 0.0, 0.0
	for i := range rh.Rates {
		wsum += rh.Weights[i]
		mean += rh.Weights[i] * rh.Rates[i]
	}
	if math.Abs(wsum-1) > 1e-12 || math.Abs(mean-1) > 1e-9 {
		t.Fatalf("weights sum %g, mean rate %g", wsum, mean)
	}
	u := UniformRates()
	if u.NumRates() != 1 || u.Rates[0] != 1 || u.Weights[0] != 1 {
		t.Fatalf("UniformRates = %+v", u)
	}
}

func TestSyntheticAAHeterogeneous(t *testing.T) {
	m := SyntheticAA()
	if m.States() != 20 {
		t.Fatalf("states = %d", m.States())
	}
	// Frequencies must be non-uniform (that is the point of the synthetic
	// empirical stand-in).
	min, max := 1.0, 0.0
	for _, f := range m.Freqs() {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if max/min < 2 {
		t.Fatalf("SyntheticAA frequencies too uniform: min %g max %g", min, max)
	}
	// Deterministic across calls.
	m2 := SyntheticAA()
	p1 := pmatrix(m, 0.1, 1)
	p2 := pmatrix(m2, 0.1, 1)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("SyntheticAA is not deterministic")
		}
	}
}
