package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/numeric"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// attachReads are the read shapes of the attachment table: full-length,
// a gappy fragment, a single site and no site at all.
func attachReads(p *Partition, rng *rand.Rand) map[string][]uint32 {
	width, gap := p.Comp.OriginalWidth(), p.Comp.Alphabet.GapMask()
	read := func(in func(site int) bool) []uint32 {
		q := make([]uint32, width)
		for site := range q {
			q[site] = gap
			if in(site) {
				q[site] = 1 << uint(rng.Intn(p.states))
			}
		}
		return q
	}
	lo, one := rng.Intn(width/2), rng.Intn(width)
	return map[string][]uint32{
		"full":        read(func(int) bool { return true }),
		"gappy":       read(func(site int) bool { return site >= lo && site < lo+width/3 || site%7 == 0 }),
		"single-site": read(func(site int) bool { return site == one }),
		"all-gap":     read(func(int) bool { return false }),
	}
}

// TestAttachmentMatchesFullWidth: every value an Attachment produces is
// bit-equal to a from-scratch full-width computation — an UpdateCLVScratch
// insertion CLV scored by QueryLogLikScratch, Brent over that, and a dense
// fold for the marginal — at the midpoint, near each end and at a re-visited
// position, for NT and AA, uniform and Γ4 rates, with and without rescaling,
// every read shape and gap mode, premasked and full-width. Its counters equal
// the evaluations and re-derivations made — x₁, x₁ is one re-derivation and
// x₁, x₂, x₁ three — and a warm attachment allocates nothing.
func TestAttachmentMatchesFullWidth(t *testing.T) {
	g4, err := model.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	const L, maxPend = 0.3, 0.5
	pends, logw := []float64{1e-8, 0.02, 0.3}, []float64{-1.5, -0.5, -2}
	glX, glW := numeric.GaussLegendre(4)
	positions := []float64{L / 2, 0.01 * L, 0.99 * L, 0.3 * L, 0.7 * L, 0.3 * L}
	for _, kc := range []kernelCase{
		{"NT-uniform", seq.DNA, model.JC69(), model.UniformRates()},
		{"NT-G4", seq.DNA, model.JC69(), g4},
		{"AA-uniform", seq.AA, model.SyntheticAA(), model.UniformRates()},
		{"AA-G4", seq.AA, model.SyntheticAA(), g4},
	} {
		for _, rescale := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rescale=%v", kc.name, rescale), func(t *testing.T) {
				rng := rand.New(rand.NewSource(43))
				p := kernelPartition(t, kc, rng)
				// Tiny inner operands on both ends force rescaling; otherwise an
				// inner and a tip end take the tip-LUT kernels.
				u, v := randCLVOperand(p, rng, rescale), makeOperand(p, "tip", rng, false)
				if rescale {
					v = randCLVOperand(p, rng, true)
				}
				ref := p.NewScratch()
				pu, pv, pp := make([]float64, p.PLen()), make([]float64, p.PLen()), make([]float64, p.PLen())
				derive := func(x float64) ([]float64, []int32) {
					clv, scale := ref.CLV(0)
					p.FillP(pu, x)
					p.FillP(pv, L-x)
					p.UpdateCLVScratch(clv, scale, u, v, pu, pv, ref)
					return clv, scale
				}
				mid := make([]float64, p.CLVLen())
				midScale := make([]int32, p.ScaleLen())
				clv, scale := derive(L / 2)
				copy(mid, clv)
				copy(midScale, scale)
				if rescale && !slices.ContainsFunc(midScale, func(c int32) bool { return c != 0 }) {
					t.Fatal("the rescaling leg never rescaled")
				}

				att := p.NewAttachment(maxPend)
				for name, query := range attachReads(p, rng) {
					for _, mode := range []struct{ skipGaps, fullWidth bool }{{true, false}, {true, true}, {false, false}} {
						label := fmt.Sprintf("%s skipGaps=%v fullWidth=%v", name, mode.skipGaps, mode.fullWidth)
						refLL := func(x, pend float64) float64 {
							clv, scale := derive(x)
							p.FillP(pp, pend)
							return p.QueryLogLikScratch(clv, scale, query, pp, mode.skipGaps, ref)
						}
						same := func(what string, got, want float64) {
							t.Helper()
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: %s = %v, full width %v", label, what, got, want)
							}
						}
						// A move re-derives the insertion CLV unless it goes to the
						// midpoint or to where the CLV was last derived.
						var evals, updates int64
						at := math.NaN()
						moved := func(x float64) {
							if x != L/2 && x != at {
								updates++
								at = x
							}
						}

						att.Attach(query, mode.skipGaps, mode.fullWidth, u, v, mid, midScale, L)
						for _, x := range positions {
							att.MoveTo(x)
							moved(x)
							for _, pend := range pends {
								same(fmt.Sprintf("LogLik at x=%g pend=%g", x, pend), att.LogLik(pend), refLL(x, pend))
								evals++
							}
						}

						pend, ll := att.BestPendant()
						r := numeric.BrentMin(func(p float64) float64 { evals++; return -refLL(0.3*L, p) }, 1e-8, maxPend, 1e-4, 24)
						same("BestPendant optimum", pend, r.X)
						same("BestPendant log-likelihood", ll, -r.F)

						x, ll := att.BestDistal(0.05)
						r = numeric.BrentMin(func(x float64) float64 { evals++; moved(x); return -refLL(x, 0.05) }, 1e-9*L, L*(1-1e-9), 0.02*L, 10)
						same("BestDistal optimum", x, r.X)
						same("BestDistal log-likelihood", ll, -r.F)

						logML, n := att.Marginal(pends, logw, glX, glW)
						m, s := math.Inf(-1), 0.0
						for j := range glX {
							x := 0.5 * L * (glX[j] + 1)
							moved(x)
							term := math.Log(0.5*L*glW[j]) - math.Log(L) + denseGrid(pends, logw, func(pend float64) float64 { return refLL(x, pend) })
							if term <= m {
								s += math.Exp(term - m)
							} else {
								s = s*math.Exp(m-term) + 1
								m = term
							}
						}
						same("Marginal", logML, m+math.Log(s))
						logML, n1 := att.Marginal(pends, logw, glX[:1], glW[:1])
						same("one-node Marginal", logML, denseGrid(pends, logw, func(pend float64) float64 { return refLL(L/2, pend) }))
						if n != len(pends)*len(glX) || n1 != len(pends) {
							t.Fatalf("%s: Marginal reported %d and %d evaluations, want %d and %d", label, n, n1, len(pends)*len(glX), len(pends))
						}

						perUpdate, runsPerUpdate := int64(p.patterns), int64(1)
						if mode.skipGaps && !mode.fullWidth {
							runs := patternRunsRef(p, query, true)
							perUpdate, runsPerUpdate = 0, int64(len(runs))
							for _, run := range runs {
								perUpdate += int64(run.Hi - run.Lo)
							}
						}
						want := AttachCounts{Evals: evals, CLVUpdates: updates, PatternsUpdated: updates * perUpdate, Runs: updates * runsPerUpdate}
						if got := att.TakeCounts(); got != want {
							t.Fatalf("%s: counts %+v, want %+v", label, got, want)
						}
						if got := att.TakeCounts(); got != (AttachCounts{}) {
							t.Fatalf("%s: TakeCounts did not reset: %+v", label, got)
						}

						// Moving to where the CLV already is costs nothing; Attach
						// forgets the position, so the second walk re-derives at x₁.
						x1, x2 := 0.3*L, 0.7*L
						for _, walk := range []struct {
							xs      []float64
							updates int64
						}{{[]float64{x1, x1}, 1}, {[]float64{x1, x2, x1}, 3}} {
							att.Attach(query, mode.skipGaps, mode.fullWidth, u, v, mid, midScale, L)
							for _, x := range walk.xs {
								att.MoveTo(x)
								same(fmt.Sprintf("LogLik after moves %v", walk.xs), att.LogLik(0.05), refLL(x, 0.05))
							}
							if got := att.TakeCounts().CLVUpdates; got != walk.updates {
								t.Fatalf("%s: moves %v cost %d insertion-CLV updates, want %d", label, walk.xs, got, walk.updates)
							}
						}
					}
				}

				query := attachReads(p, rng)["gappy"]
				if a := testing.AllocsPerRun(3, func() {
					att.Attach(query, true, false, u, v, mid, midScale, L)
					att.MoveTo(0.3 * L)
					att.LogLik(0.05)
					att.BestPendant()
					att.BestDistal(0.05)
					att.Marginal(pends, logw, glX, glW)
				}); a != 0 {
					t.Errorf("a warm attachment allocates %v times per candidate, want 0", a)
				}
			})
		}
	}
}

// denseGrid is the pendant grid's streaming log-sum-exp over independently
// computed log-likelihoods.
func denseGrid(pends, logw []float64, ll func(pend float64) float64) float64 {
	m, s := math.Inf(-1), 0.0
	for i, pend := range pends {
		if term := logw[i] + ll(pend); term <= m {
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

// TestMaxPendant pins the two pendant rules: the search bound is four mean
// branch lengths, floored at 1e-4, and the prescoring pendant half the mean,
// 0.01 when the branches sum to zero.
func TestMaxPendant(t *testing.T) {
	for _, tc := range []struct {
		newick    string
		max, pend float64
	}{
		{"((A:0.1,B:0.2):0.15,(C:0.3,D:0.05):0.2,E:0.1);", 4 * (1.1 / 7), 1.1 / 7 / 2},
		{"((A:0,B:0):0,(C:0,D:1e-9):0,E:0);", 1e-4, 1e-9 / 7 / 2},
		{"((A:0,B:0):0,(C:0,D:0):0,E:0);", 1e-4, 0.01},
	} {
		tr, err := tree.ParseNewick(tc.newick)
		if err != nil {
			t.Fatal(err)
		}
		if got := MaxPendant(tr); math.Abs(got-tc.max) > 1e-15 {
			t.Errorf("%s: MaxPendant = %v, want %v", tc.newick, got, tc.max)
		}
		if got := PrescorePendant(tr); math.Abs(got-tc.pend) > 1e-15 {
			t.Errorf("%s: PrescorePendant = %v, want %v", tc.newick, got, tc.pend)
		}
	}
}
