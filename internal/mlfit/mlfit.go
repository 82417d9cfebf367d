// Package mlfit estimates model parameters and branch lengths on a fixed
// reference topology by maximum likelihood. EPA-NG does not fit models
// itself — it requires the reference tree and substitution-model parameters
// to be evaluated beforehand (in practice by RAxML-NG); this package is that
// substrate: given topology + alignment it optimizes branch lengths, the
// discrete-Gamma shape, GTR exchangeabilities, and stationary frequencies
// (empirically), so synthetic or user-provided references can be brought to
// their ML configuration before placement.
package mlfit

import (
	"fmt"
	"math"

	"phylomem/internal/model"
	"phylomem/internal/numeric"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// Options selects what Fit optimizes.
type Options struct {
	// BranchLengths enables per-branch Newton/Brent length optimization.
	BranchLengths bool
	// Alpha enables discrete-Gamma shape optimization (requires the input
	// rates to be a Gamma approximation; the category count is preserved).
	Alpha bool
	// Exchangeabilities enables GTR rate optimization (4-state models only;
	// the last exchangeability is fixed to 1 as the reference).
	Exchangeabilities bool
	// Rounds bounds the outer optimization rounds (default 3).
	Rounds int
	// Tolerance is the log-likelihood improvement below which optimization
	// stops early (default 1e-3).
	Tolerance float64
}

// DefaultOptions enables everything.
func DefaultOptions() Options {
	return Options{BranchLengths: true, Alpha: true, Exchangeabilities: true}
}

// Result reports the fitted configuration. The tree's branch lengths are
// updated in place when branch-length optimization is enabled.
type Result struct {
	LogLik      float64
	StartLL     float64
	Alpha       float64 // 0 when alpha was not optimized
	Model       *model.Model
	Rates       *model.RateHet
	Rounds      int
	Evaluations int // full-likelihood evaluations performed
}

// branch length search bounds.
const (
	minBranch = 1e-8
	maxBranch = 10.0
)

// fitState carries the mutable configuration through the optimization.
type fitState struct {
	tr    *tree.Tree
	comp  *seq.Compressed
	m     *model.Model
	rates *model.RateHet
	alpha float64
	exch  []float64 // 6 GTR exchangeabilities, or nil
	freqs []float64
	evals int
}

// loglik computes the tree log-likelihood under the current configuration.
func (s *fitState) loglik() (float64, error) {
	part, err := phylo.NewPartition(s.m, s.rates, s.comp, s.tr)
	if err != nil {
		return 0, err
	}
	full, err := phylo.ComputeFullCLVSet(part, s.tr, nil)
	if err != nil {
		return 0, err
	}
	s.evals++
	return full.TreeLogLik(s.tr.Edges[0]), nil
}

// EmpiricalFreqs returns the observed state frequencies of an alignment,
// distributing ambiguity codes uniformly over their compatible states and
// ignoring gaps. A small pseudocount keeps every frequency positive.
func EmpiricalFreqs(msa *seq.MSA) ([]float64, error) {
	a := msa.Alphabet
	s := a.States()
	counts := make([]float64, s)
	for i := range counts {
		counts[i] = 0.5 // pseudocount
	}
	gap := a.GapMask()
	for _, sq := range msa.Sequences {
		for _, c := range sq.Data {
			code, err := a.Code(c)
			if err != nil {
				return nil, err
			}
			if code == gap {
				continue
			}
			n := 0
			for m := code; m != 0; m &= m - 1 {
				n++
			}
			w := 1 / float64(n)
			for st := 0; st < s; st++ {
				if code&(1<<uint(st)) != 0 {
					counts[st] += w
				}
			}
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts, nil
}

// Fit optimizes the selected parameters. The input model must be GTR-like
// (4-state, built from 6 exchangeabilities) when Exchangeabilities is
// enabled; initExch supplies its current values (nil = all ones). gammaCats
// and initAlpha describe the rate heterogeneity when Alpha is enabled.
func Fit(tr *tree.Tree, msa *seq.MSA, initExch []float64, initAlpha float64, gammaCats int, opts Options) (*Result, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-3
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		return nil, err
	}
	freqs, err := EmpiricalFreqs(msa)
	if err != nil {
		return nil, err
	}
	if msa.Alphabet.States() != 4 && opts.Exchangeabilities {
		return nil, fmt.Errorf("mlfit: exchangeability optimization requires 4-state data")
	}

	st := &fitState{tr: tr, comp: comp, freqs: freqs, alpha: initAlpha}
	if st.alpha <= 0 {
		st.alpha = 1.0
	}
	if gammaCats <= 0 {
		gammaCats = 4
	}
	if msa.Alphabet.States() == 4 {
		st.exch = append([]float64(nil), initExch...)
		if st.exch == nil {
			st.exch = []float64{1, 1, 1, 1, 1, 1}
		}
		if len(st.exch) != 6 {
			return nil, fmt.Errorf("mlfit: need 6 exchangeabilities, got %d", len(st.exch))
		}
	}
	if err := st.rebuildModel(msa, gammaCats); err != nil {
		return nil, err
	}

	cur, err := st.loglik()
	if err != nil {
		return nil, err
	}
	res := &Result{StartLL: cur}

	for round := 0; round < opts.Rounds; round++ {
		res.Rounds = round + 1
		before := cur
		if opts.BranchLengths {
			if cur, err = st.optimizeBranches(cur); err != nil {
				return nil, err
			}
		}
		if opts.Alpha {
			if cur, err = st.optimizeAlpha(msa, gammaCats, cur); err != nil {
				return nil, err
			}
		}
		if opts.Exchangeabilities && st.exch != nil {
			if cur, err = st.optimizeExchangeabilities(msa, gammaCats, cur); err != nil {
				return nil, err
			}
		}
		if cur-before < opts.Tolerance {
			break
		}
	}
	res.LogLik = cur
	res.Alpha = st.alpha
	res.Model = st.m
	res.Rates = st.rates
	res.Evaluations = st.evals
	return res, nil
}

// rebuildModel reconstructs the model and rates from the current state.
func (s *fitState) rebuildModel(msa *seq.MSA, gammaCats int) error {
	var err error
	if msa.Alphabet.States() == 4 {
		s.m, err = model.GTR(s.freqs, s.exch)
	} else {
		upper := make([]float64, msa.Alphabet.States()*(msa.Alphabet.States()-1)/2)
		for i := range upper {
			upper[i] = 1
		}
		full := make([]float64, msa.Alphabet.States()*msa.Alphabet.States())
		k := 0
		n := msa.Alphabet.States()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				full[i*n+j] = upper[k]
				full[j*n+i] = upper[k]
				k++
			}
		}
		s.m, err = model.NewReversible("fitAA", s.freqs, full)
	}
	if err != nil {
		return err
	}
	if gammaCats > 1 {
		s.rates, err = model.GammaRates(s.alpha, gammaCats)
		return err
	}
	s.rates = model.UniformRates()
	return nil
}

// optimizeBranches performs one Jacobi-style sweep: every branch length is
// optimized by Brent against the current CLV set (directional CLVs do not
// depend on their own edge's length, so within a sweep each branch sees
// consistent partials; sweeps iterate to convergence across rounds).
func (s *fitState) optimizeBranches(cur float64) (float64, error) {
	part, err := phylo.NewPartition(s.m, s.rates, s.comp, s.tr)
	if err != nil {
		return 0, err
	}
	full, err := phylo.ComputeFullCLVSet(part, s.tr, nil)
	if err != nil {
		return 0, err
	}
	sc := part.NewScratch()
	pm := sc.P(0)
	for _, e := range s.tr.Edges {
		a, b := e.Nodes()
		opA := full.Operand(s.tr.DirOf(e, a))
		opB := full.Operand(s.tr.DirOf(e, b))
		obj := func(t float64) float64 {
			part.FillP(pm, t)
			s.evals++
			return -part.EdgeLogLikScratch(opA, opB, pm, sc)
		}
		r := numeric.BrentMin(obj, minBranch, maxBranch, 1e-6, 32)
		if -r.F > cur-1e-12 { // accept only non-degrading moves
			e.Length = r.X
		}
	}
	return s.loglik()
}

// optimizeAlpha fits the Gamma shape by Brent in log space.
func (s *fitState) optimizeAlpha(msa *seq.MSA, gammaCats int, cur float64) (float64, error) {
	if gammaCats <= 1 {
		return cur, nil
	}
	var lastErr error
	obj := func(logA float64) float64 {
		s.alpha = math.Exp(logA)
		if err := s.rebuildModel(msa, gammaCats); err != nil {
			lastErr = err
			return math.Inf(1)
		}
		ll, err := s.loglik()
		if err != nil {
			lastErr = err
			return math.Inf(1)
		}
		return -ll
	}
	r := numeric.BrentMin(obj, math.Log(0.02), math.Log(100), 1e-3, 24)
	if lastErr != nil {
		return 0, lastErr
	}
	s.alpha = math.Exp(r.X)
	if err := s.rebuildModel(msa, gammaCats); err != nil {
		return 0, err
	}
	if -r.F < cur {
		// Numerical wobble: keep the better of the two.
		return s.loglik()
	}
	return -r.F, nil
}

// optimizeExchangeabilities cycles Brent over the first five GTR rates
// (the sixth, GT, is the fixed reference at 1).
func (s *fitState) optimizeExchangeabilities(msa *seq.MSA, gammaCats int, cur float64) (float64, error) {
	s.exch[5] = 1
	var lastErr error
	for p := 0; p < 5; p++ {
		orig := s.exch[p]
		obj := func(logR float64) float64 {
			s.exch[p] = math.Exp(logR)
			if err := s.rebuildModel(msa, gammaCats); err != nil {
				lastErr = err
				return math.Inf(1)
			}
			ll, err := s.loglik()
			if err != nil {
				lastErr = err
				return math.Inf(1)
			}
			return -ll
		}
		r := numeric.BrentMin(obj, math.Log(1e-3), math.Log(1e3), 1e-3, 20)
		if lastErr != nil {
			return 0, lastErr
		}
		if -r.F >= cur {
			s.exch[p] = math.Exp(r.X)
			cur = -r.F
		} else {
			s.exch[p] = orig
		}
	}
	if err := s.rebuildModel(msa, gammaCats); err != nil {
		return 0, err
	}
	return s.loglik()
}
