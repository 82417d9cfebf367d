package phylo

import (
	"math"

	"phylomem/internal/numeric"
	"phylomem/internal/tree"
)

// MaxPendant is the upper end of every pendant-length search and quadrature
// on tr: four mean branch lengths, and never below 1e-4.
func MaxPendant(tr *tree.Tree) float64 {
	return max(4*(tr.TotalBranchLength()/float64(tr.NumBranches())), 1e-4)
}

// PrescorePendant is the pendant length phase-1 prescoring inserts every
// query at: half the mean branch length of tr, or 0.01 on a tree whose
// branches sum to zero.
func PrescorePendant(tr *tree.Tree) float64 {
	p := tr.TotalBranchLength() / float64(tr.NumBranches()) / 2
	if p <= 0 {
		p = 0.01
	}
	return p
}

// Attachment is one query on one reference branch, phase 2's one evaluator.
// Attach builds it once per (candidate, query); its methods are the whole of
// phase 2 — move the insertion point, evaluate at a pendant length, the
// pendant and distal Brent searches (EPA, arXiv 0911.2852), the posterior
// marginal (pplacer, arXiv 1003.5943) — so the ML search, the bayes grid and
// the pplacer baseline share one spelling of the likelihood.
//
// The attachment owns a private Scratch, which holds the query's covered-site
// list, the premask runs built by the same pass, the pendant and proximal
// matrices and, in CLV(0), the premasked insertion CLV: bit-identical to the
// full-width update on the runs and stale elsewhere. Nothing outside the type
// can reach that scratch, and every read of the CLV walks the covered list
// built with the runs, so no stale pattern is ever read (DESIGN.md
// "Premasked phase 2"). One goroutine uses an attachment at a time; it
// allocates nothing once its buffers have grown.
type Attachment struct {
	p       *Partition
	sc      *Scratch
	maxPend float64

	u, v     Operand
	mid      []float64
	midScale []int32
	length   float64
	runs     []patternRun

	clv   []float64 // what the likelihood reads: mid, or sc.CLV(0) after a move
	scale []int32
	at    float64 // the position sc.CLV(0) was derived at; NaN until a move

	counts AttachCounts
}

// AttachCounts is the work an attachment did since its last TakeCounts.
type AttachCounts struct {
	Evals           int64 // likelihood evaluations by LogLik and the Brent searches
	CLVUpdates      int64 // premasked insertion-CLV re-derivations
	PatternsUpdated int64 // patterns those re-derivations computed
	Runs            int64 // premask runs summed over those re-derivations, one kernel call each
}

// NewAttachment returns an attachment whose pendant searches run on
// [1e-8, maxPend] (see MaxPendant). Attach it before use.
func (p *Partition) NewAttachment(maxPend float64) *Attachment {
	return &Attachment{p: p, sc: p.NewScratch(), maxPend: maxPend}
}

// Attach places the query at the midpoint of the branch with end operands u
// and v, midpoint CLV mid/midScale and the given length, scoring its sites in
// the given gap mode. fullWidth re-derives moved insertion CLVs over every
// pattern instead of the query's premask runs: the same likelihoods, the
// reference the premask is compared with.
func (a *Attachment) Attach(query []uint32, skipGaps, fullWidth bool, u, v Operand, mid []float64, midScale []int32, length float64) {
	a.runs = a.p.queryPatternRuns(query, skipGaps, a.sc)
	if fullWidth {
		a.runs = append(a.runs[:0], patternRun{0, a.p.patterns})
	}
	a.u, a.v, a.mid, a.midScale, a.length = u, v, mid, midScale, length
	a.clv, a.scale = mid, midScale
	a.at = math.NaN()
}

// MoveTo moves the insertion point to distance x from u along the branch.
// The midpoint reads the branch's midpoint CLV, and the position the
// insertion CLV was last derived at reads that CLV again; any other position
// re-derives the insertion CLV over the premask runs, and is counted.
func (a *Attachment) MoveTo(x float64) {
	if x == a.length/2 {
		a.clv, a.scale = a.mid, a.midScale
		return
	}
	a.clv, a.scale = a.sc.CLV(0)
	if x == a.at {
		return
	}
	a.at = x
	pu, pv := a.sc.P(1), a.sc.P(2)
	a.p.FillP(pu, x)
	a.p.FillP(pv, a.length-x)
	n := a.p.updateCLVRuns(a.clv, a.scale, a.u, a.v, pu, pv, a.runs, a.sc)
	a.counts.CLVUpdates++
	a.counts.PatternsUpdated += int64(n)
	a.counts.Runs += int64(len(a.runs))
}

// LogLik returns the query's log-likelihood at the current insertion point
// with pendant length pend.
func (a *Attachment) LogLik(pend float64) float64 {
	ppend := a.sc.P(0)
	a.p.FillP(ppend, pend)
	return a.logLik(ppend)
}

// logLik is LogLik under the pendant matrices in ppend.
func (a *Attachment) logLik(ppend []float64) float64 {
	a.counts.Evals++
	return a.p.coveredLogLik(a.clv, a.scale, ppend, a.sc)
}

// BestPendant maximizes the likelihood over the pendant length at the current
// insertion point — Brent on [1e-8, maxPend] with tolerance 1e-4 relative to
// the trial point (numeric.BrentMin), at most 24 iterations — and returns the
// optimum and its log-likelihood.
func (a *Attachment) BestPendant() (pend, ll float64) {
	r := numeric.BrentMin(func(p float64) float64 { return -a.LogLik(p) }, 1e-8, a.maxPend, 1e-4, 24)
	return r.X, -r.F
}

// BestDistal maximizes the likelihood over the insertion point with the
// pendant length fixed — Brent on [1e-9·L, (1−1e-9)·L] with tolerance 0.02·L
// relative to the trial point x, a bracket of about 0.08·L·x rather than 2 %
// of L, at most 10 iterations — and returns the optimum and its
// log-likelihood. The insertion point is left at the last trial.
func (a *Attachment) BestDistal(pend float64) (x, ll float64) {
	ppend := a.sc.P(0)
	a.p.FillP(ppend, pend)
	L := a.length
	r := numeric.BrentMin(func(x float64) float64 {
		a.MoveTo(x)
		return -a.logLik(ppend)
	}, 1e-9*L, L*(1-1e-9), 0.02*L, 10)
	return r.X, -r.F
}

// Marginal returns the query's log-likelihood integrated over the pendant
// grid (nodes pends, log-weights logw including the prior's normalizer) and
// over the insertion point under a uniform prior on [0, L], by the rule
// glX/glW on [-1, 1] mapped onto the branch, folded in grid order; a branch of
// length ≤ 1e-9 or a one-node rule collapses to the pendant marginal at the
// midpoint. It also returns the likelihoods evaluated (not counted as Evals).
func (a *Attachment) Marginal(pends, logw, glX, glW []float64) (logML float64, evals int) {
	L := a.length
	if L <= 1e-9 || len(glX) <= 1 {
		a.MoveTo(L / 2)
		return a.p.coveredPendantGrid(a.clv, a.scale, pends, logw, a.sc), len(pends)
	}
	logL := math.Log(L)
	m, s := math.Inf(-1), 0.0
	for j := range glX {
		a.MoveTo(0.5 * L * (glX[j] + 1))
		term := math.Log(0.5*L*glW[j]) - logL + a.p.coveredPendantGrid(a.clv, a.scale, pends, logw, a.sc)
		if term <= m {
			s += math.Exp(term - m)
		} else {
			s = s*math.Exp(m-term) + 1
			m = term
		}
	}
	return m + math.Log(s), len(pends) * len(glX)
}

// TakeCounts returns the work counted since the last call and resets it.
func (a *Attachment) TakeCounts() AttachCounts {
	c := a.counts
	a.counts = AttachCounts{}
	return c
}

// QueryLogLikPendantGrid returns log Σ_i exp(logw[i] + ℓ(pends[i])), ℓ(t)
// being QueryLogLikScratch at pendant length t. With logw the log weights of
// a quadrature rule on the pendant interval (minus the log prior normalizer),
// that is the likelihood marginalized over the pendant branch length.
func (p *Partition) QueryLogLikPendantGrid(bclv []float64, bscale []int32, query []uint32, pends, logw []float64, skipGaps bool, sc *Scratch) float64 {
	p.queryPatternRuns(query, skipGaps, sc)
	return p.coveredPendantGrid(bclv, bscale, pends, logw, sc)
}

// coveredPendantGrid is QueryLogLikPendantGrid of the query whose
// covered-site list sc holds: every grid node walks that one list, with
// sc.P(0) as the pendant matrices. The fold is a streaming log-sum-exp in
// slice order with a scalar accumulator, so the result is bit-reproducible
// for a fixed grid regardless of threading.
func (p *Partition) coveredPendantGrid(bclv []float64, bscale []int32, pends, logw []float64, sc *Scratch) float64 {
	if len(pends) != len(logw) {
		panic("phylo: pendant grid and log-weights length mismatch")
	}
	ppend := sc.P(0)
	m, s := math.Inf(-1), 0.0 // running max and Σ exp(term−m)
	for i, t := range pends {
		p.FillP(ppend, t)
		term := logw[i] + p.coveredLogLik(bclv, bscale, ppend, sc)
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
