// Package model implements time-reversible substitution models for
// nucleotide and amino-acid data, including their eigendecomposition and
// transition-probability (P) matrices, plus discrete-Gamma rate
// heterogeneity. This is the statistical-model layer of the libpll-2
// equivalent engine in internal/phylo.
package model

import (
	"fmt"
	"math"

	"phylomem/internal/numeric"
)

// Model is a time-reversible continuous-time Markov substitution model with
// a precomputed eigendecomposition of its (symmetrized) rate matrix. The
// rate matrix is normalized so that one unit of branch length equals one
// expected substitution per site.
type Model struct {
	name   string
	states int
	freqs  []float64

	// Eigen system: P(t) = right · diag(exp(λ t)) · left, where
	// right = Π^{-1/2} V and left = Vᵀ Π^{1/2} for the symmetric
	// B = Π^{1/2} Q Π^{-1/2} = V Λ Vᵀ.
	evals []float64
	right []float64 // states×states row-major
	left  []float64 // states×states row-major
}

// Name returns the model's name (e.g. "GTR").
func (m *Model) Name() string { return m.name }

// States returns the number of character states.
func (m *Model) States() int { return m.states }

// Freqs returns the stationary state frequencies π (not a copy; callers must
// not modify it).
func (m *Model) Freqs() []float64 { return m.freqs }

// NewReversible builds a reversible model from stationary frequencies and
// symmetric exchangeabilities. exch is a full states×states row-major matrix
// whose diagonal is ignored; it must be symmetric with positive off-diagonal
// entries. freqs must be positive and sum to 1 (within tolerance; they are
// renormalized).
func NewReversible(name string, freqs, exch []float64) (*Model, error) {
	s := len(freqs)
	if s < 2 {
		return nil, fmt.Errorf("model: need at least 2 states, got %d", s)
	}
	if len(exch) != s*s {
		return nil, fmt.Errorf("model: exchangeability matrix has %d entries, want %d", len(exch), s*s)
	}
	sum := 0.0
	for i, f := range freqs {
		if f <= 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("model: frequency %d is %g, must be positive", i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("model: frequencies sum to %g, want 1", sum)
	}
	pi := make([]float64, s)
	for i, f := range freqs {
		pi[i] = f / sum
	}
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			if exch[i*s+j] <= 0 {
				return nil, fmt.Errorf("model: exchangeability (%d,%d) = %g, must be positive", i, j, exch[i*s+j])
			}
			if math.Abs(exch[i*s+j]-exch[j*s+i]) > 1e-9*exch[i*s+j] {
				return nil, fmt.Errorf("model: exchangeabilities not symmetric at (%d,%d)", i, j)
			}
		}
	}

	// Build Q_ij = S_ij π_j, diagonal = -rowsum; then normalize the expected
	// rate Σ_i π_i (-Q_ii) to 1.
	q := numeric.NewMatrix(s, s)
	for i := 0; i < s; i++ {
		rowSum := 0.0
		for j := 0; j < s; j++ {
			if i == j {
				continue
			}
			v := exch[i*s+j] * pi[j]
			q.Set(i, j, v)
			rowSum += v
		}
		q.Set(i, i, -rowSum)
	}
	rate := 0.0
	for i := 0; i < s; i++ {
		rate -= pi[i] * q.At(i, i)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("model: degenerate rate matrix (rate %g)", rate)
	}
	for i := range q.Data {
		q.Data[i] /= rate
	}

	// Symmetrize: B = Π^{1/2} Q Π^{-1/2}.
	b := numeric.NewMatrix(s, s)
	sqrtPi := make([]float64, s)
	for i := range pi {
		sqrtPi[i] = math.Sqrt(pi[i])
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			b.Set(i, j, sqrtPi[i]*q.At(i, j)/sqrtPi[j])
		}
	}
	// Force exact symmetry against rounding before the Jacobi sweep.
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			v := 0.5 * (b.At(i, j) + b.At(j, i))
			b.Set(i, j, v)
			b.Set(j, i, v)
		}
	}
	vals, vecs, err := numeric.SymEig(b)
	if err != nil {
		return nil, fmt.Errorf("model: eigendecomposition failed: %w", err)
	}
	m := &Model{name: name, states: s, freqs: pi, evals: vals,
		right: make([]float64, s*s), left: make([]float64, s*s)}
	for i := 0; i < s; i++ {
		for k := 0; k < s; k++ {
			m.right[i*s+k] = vecs.At(i, k) / sqrtPi[i]
			m.left[k*s+i] = vecs.At(i, k) * sqrtPi[i]
		}
	}
	return m, nil
}

// TransitionMatrix fills dst (length states²) with P(t·rate), the transition
// probabilities over branch length t scaled by a rate multiplier. Small
// negative entries from rounding are clamped to zero.
//
// Row i is numeric.CombineRows of left's rows with weights
// w_k = right[i][k]·e^{λ_k t}: entry (i, j) is Σ_k w_k·left[k][j], summed
// from +0 in ascending k. At 4 states transitionMatrix4 performs the same
// operations in straight-line code.
func (m *Model) TransitionMatrix(dst []float64, t, rate float64) {
	s := m.states
	if len(dst) != s*s {
		panic(fmt.Sprintf("model: TransitionMatrix dst has %d entries, want %d", len(dst), s*s))
	}
	tt := t * rate
	if tt < 0 {
		tt = 0
	}
	if s == 4 {
		m.transitionMatrix4(dst, tt)
		return
	}
	// exps_k = e^{λ_k t}
	var expsArr, wArr [20]float64
	exps, w := expsArr[:s], wArr[:s]
	for k := 0; k < s; k++ {
		exps[k] = math.Exp(m.evals[k] * tt)
	}
	for i := 0; i < s; i++ {
		ri := m.right[i*s : i*s+s]
		for k := range w {
			w[k] = ri[k] * exps[k]
		}
		di := dst[i*s : i*s+s]
		numeric.CombineRows(di, m.left, w)
		for j := range di {
			if di[j] < 0 {
				di[j] = 0
			}
		}
	}
}

// transitionMatrix4 is TransitionMatrix at 4 states for the scaled length
// tt: per row the weights w_k = right[i][k]·e_k, then each entry one chain
// from +0 over ascending k, then the clamp — CombineRows' chains, without
// its call and buffers.
func (m *Model) transitionMatrix4(dst []float64, tt float64) {
	ev, right, left := m.evals[:4:4], m.right[:16:16], m.left[:16:16]
	e0 := math.Exp(ev[0] * tt)
	e1 := math.Exp(ev[1] * tt)
	e2 := math.Exp(ev[2] * tt)
	e3 := math.Exp(ev[3] * tt)
	for i := 0; i < 4; i++ {
		ri := right[i*4 : i*4+4 : i*4+4]
		w0, w1, w2, w3 := ri[0]*e0, ri[1]*e1, ri[2]*e2, ri[3]*e3
		d := dst[i*4 : i*4+4 : i*4+4]
		for j := 0; j < 4; j++ {
			v := 0.0
			v += w0 * left[j]
			v += w1 * left[4+j]
			v += w2 * left[8+j]
			v += w3 * left[12+j]
			if v < 0 {
				v = 0
			}
			d[j] = v
		}
	}
}

// RateHet describes among-site rate heterogeneity as discrete categories
// with rates and (prior) weights.
type RateHet struct {
	Rates   []float64
	Weights []float64
}

// UniformRates returns a single-category (no heterogeneity) RateHet.
func UniformRates() *RateHet {
	return &RateHet{Rates: []float64{1}, Weights: []float64{1}}
}

// GammaRates returns the k-category discrete Gamma approximation with shape
// alpha (mean rate 1, equal category weights).
func GammaRates(alpha float64, k int) (*RateHet, error) {
	rates, err := numeric.DiscreteGammaRates(alpha, k)
	if err != nil {
		return nil, err
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / float64(k)
	}
	return &RateHet{Rates: rates, Weights: w}, nil
}

// NumRates returns the number of rate categories.
func (r *RateHet) NumRates() int { return len(r.Rates) }
