package placement

import (
	"fmt"
	"math"
	"time"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
	"phylomem/internal/numeric"
)

// This file is the Bayesian posterior scoring path (pplacer's posterior
// probability mode, arXiv 1003.5943): instead of reporting only the
// branch-length-optimized likelihood, phase 2 additionally integrates the
// query likelihood over a pendant × proximal branch-length grid under a
// uniform prior and normalizes the per-branch marginals into posterior
// probabilities. The integration reuses the exact same per-branch inputs as
// the ML path — the block's midpoint CLV and directional operand snapshots,
// the worker's phylo.Attachment — so every memory lever (AMC, spill, dedup,
// tiling) serves it unchanged, and phase 1 is untouched entirely. Each
// candidate is integrated by exactly one worker with a fixed grid and a
// fixed fold order, so the output is byte-identical across thread counts,
// tile sizes, and memory modes, like the ML path.

// ScoringMode selects how phase 2 turns candidate branches into reported
// placements.
type ScoringMode string

const (
	// ScoringML reports branch-length-optimized log-likelihoods and
	// likelihood weight ratios (EPA-NG's behavior; the default).
	ScoringML ScoringMode = "ml"
	// ScoringBayes additionally integrates the likelihood over branch
	// lengths and reports posterior probabilities (pplacer's behavior).
	ScoringBayes ScoringMode = "bayes"
)

// ParseScoringMode validates a --scoring flag value ("" means ML).
func ParseScoringMode(s string) (ScoringMode, error) {
	switch ScoringMode(s) {
	case "", ScoringML:
		return ScoringML, nil
	case ScoringBayes:
		return ScoringBayes, nil
	}
	return "", fmt.Errorf("placement: unknown scoring mode %q (want ml or bayes)", s)
}

// bayes reports whether the posterior path is active.
func (c Config) bayes() bool { return c.Scoring == ScoringBayes }

// initBayesGrids precomputes the fixed quadrature grids the posterior path
// integrates over: the pendant-length Gauss-Legendre rule on [pendLo,
// maxPend] with log-weights that already include the uniform prior's
// −log(range), and the unit proximal rule on [-1, 1] that
// phylo.Attachment.Marginal maps onto each branch's [0, length]. Precomputing
// once per engine makes the grid — and therefore the output bytes — a pure
// function of the config.
func (e *Engine) initBayesGrids(maxPend float64) {
	const pendLo = 1e-8
	n := e.cfg.BayesPendantNodes
	nodes, weights := numeric.GaussLegendre(n)
	e.bayesPend = make([]float64, n)
	ws := make([]float64, n)
	numeric.MapInterval(nodes, weights, pendLo, maxPend, e.bayesPend, ws)
	logRange := math.Log(maxPend - pendLo)
	e.bayesLogW = make([]float64, n)
	for i, w := range ws {
		e.bayesLogW[i] = math.Log(w) - logRange
	}
	e.glX, e.glW = numeric.GaussLegendre(e.cfg.BayesProximalNodes)
}

// computeEDPL annotates every query in out with its expected distance
// between placement locations. The per-query computations fan out over the
// pool (each holds its own path cache). It runs on distinct sequences, before
// duplicates fan out; foldEDPL counts the values per placed query.
func (e *Engine) computeEDPL(out []jplace.Placements) {
	start := time.Now()
	vals := make([]float64, len(out))
	e.pool.ForEach(len(out), func(qi, _ int) {
		vals[qi] = analyze.EDPL(e.tr, out[qi])
	})
	for qi := range out {
		out[qi].EDPL = &vals[qi]
	}
	e.scor.EDPLDone(time.Since(start))
}

// foldEDPL adds the EDPL of every placed query in out, duplicates included,
// to the run statistics, serially and in output order so they are
// deterministic.
func (e *Engine) foldEDPL(out []jplace.Placements) {
	for _, p := range out {
		if p.EDPL == nil {
			continue
		}
		e.stats.EDPLCount++
		e.stats.EDPLSum += *p.EDPL
		e.stats.EDPLMax = max(e.stats.EDPLMax, *p.EDPL)
	}
}
