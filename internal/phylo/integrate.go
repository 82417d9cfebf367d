package phylo

import "math"

// This file contains the numerical-integration kernel behind the Bayesian
// posterior scoring mode (pplacer's "integrate the likelihood over branch
// lengths instead of optimizing them"). The placement engine supplies a
// pendant-length quadrature grid with log-weights; this kernel evaluates the
// query log-likelihood at each grid node against a fixed branch CLV and
// folds the weighted terms into one marginal log-likelihood with a
// streaming, order-deterministic log-sum-exp. Everything runs on the same
// Scratch buffers as the ML path, so AMC/spill/dedup/tile serve it
// unchanged.

// QueryLogLikPendantGrid returns log Σ_i exp(logw[i] + ℓ(pends[i])), where
// ℓ(t) is QueryLogLikScratch evaluated with the pendant transition matrix at
// branch length t. With logw the log quadrature weights of a rule on the
// pendant interval (minus the log prior normalizer), the result is the log
// of the likelihood marginalized over the pendant branch length. It builds
// the query's covered-site list and hands it to CoveredPendantGrid.
func (p *Partition) QueryLogLikPendantGrid(bclv []float64, bscale []int32, query []uint32, pends, logw []float64, skipGaps bool, sc *Scratch) float64 {
	p.QueryPatternRuns(query, skipGaps, sc)
	return p.CoveredPendantGrid(bclv, bscale, pends, logw, sc)
}

// CoveredPendantGrid is QueryLogLikPendantGrid of the query whose
// covered-site list sc holds (QueryPatternRuns): every grid node walks that
// one list.
//
// The summation order is the slice order and the accumulator is scalar, so
// the result is bit-reproducible for a fixed grid regardless of threading.
// Uses sc.P(0) as the pendant-matrix buffer; callers holding other P indices
// (e.g. proximal matrices in P(1)/P(2)) are unaffected.
func (p *Partition) CoveredPendantGrid(bclv []float64, bscale []int32, pends, logw []float64, sc *Scratch) float64 {
	if len(pends) != len(logw) {
		panic("phylo: pendant grid and log-weights length mismatch")
	}
	ppend := sc.P(0)
	// Streaming log-sum-exp: track the running max m and the sum s of
	// exp(term−m). Rescaling multiplies s by exp(m−m'), so no second pass
	// over the terms is needed and the fold stays single-order.
	m := math.Inf(-1)
	s := 0.0
	for i, t := range pends {
		p.FillP(ppend, t)
		term := logw[i] + p.CoveredLogLik(bclv, bscale, ppend, sc)
		if term <= m {
			s += math.Exp(term - m)
		} else {
			s = s*math.Exp(m-term) + 1
			m = term
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	return m + math.Log(s)
}
