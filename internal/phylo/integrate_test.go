package phylo

import (
	"math"
	"testing"

	"phylomem/internal/numeric"
)

// TestPendantGridMatchesManualLogSumExp: the streaming fold must equal a
// two-pass log-sum-exp over individually computed QueryLogLikScratch values.
func TestPendantGridMatchesManualLogSumExp(t *testing.T) {
	fx := newFixture(t, 71, 8, 60)
	q := fx.randomQuery(60, 0.1)
	e := fx.tr.Edges[3]
	bclv, bscale := fx.midpointCLV(e)

	nodes, weights := numeric.GaussLegendre(8)
	pends := make([]float64, 8)
	ws := make([]float64, 8)
	numeric.MapInterval(nodes, weights, 1e-8, 0.5, pends, ws)
	logw := make([]float64, 8)
	for i, w := range ws {
		logw[i] = math.Log(w)
	}

	sc := fx.p.NewScratch()
	got := fx.p.QueryLogLikPendantGrid(bclv, bscale, q, pends, logw, true, sc)

	// Manual reference: max-shifted sum of exp over per-node terms.
	terms := make([]float64, len(pends))
	best := math.Inf(-1)
	pp := make([]float64, fx.p.PLen())
	for i, bl := range pends {
		fx.p.FillP(pp, bl)
		terms[i] = logw[i] + fx.p.QueryLogLikScratch(bclv, bscale, q, pp, true, fx.p.NewScratch())
		if terms[i] > best {
			best = terms[i]
		}
	}
	sum := 0.0
	for _, v := range terms {
		sum += math.Exp(v - best)
	}
	want := best + math.Log(sum)

	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("streaming fold %.12f != manual log-sum-exp %.12f", got, want)
	}
}

// TestPendantGridDeterministic: repeated evaluation with the same grid and a
// reused scratch must be bit-identical.
func TestPendantGridDeterministic(t *testing.T) {
	fx := newFixture(t, 72, 8, 40)
	q := fx.randomQuery(40, 0.0)
	bclv, bscale := fx.midpointCLV(fx.tr.Edges[1])

	nodes, weights := numeric.GaussLegendre(4)
	pends := make([]float64, 4)
	ws := make([]float64, 4)
	numeric.MapInterval(nodes, weights, 1e-6, 0.3, pends, ws)
	logw := make([]float64, 4)
	for i, w := range ws {
		logw[i] = math.Log(w)
	}

	sc := fx.p.NewScratch()
	first := fx.p.QueryLogLikPendantGrid(bclv, bscale, q, pends, logw, true, sc)
	for i := 0; i < 3; i++ {
		if v := fx.p.QueryLogLikPendantGrid(bclv, bscale, q, pends, logw, true, sc); v != first {
			t.Fatalf("run %d: %v != %v", i, v, first)
		}
	}
}

// TestPendantGridRefinementConverges: the marginal stabilizes as the
// quadrature order grows — successive refinements approach the 32-point
// answer, and 16 points already lands within a tight tolerance.
func TestPendantGridRefinementConverges(t *testing.T) {
	fx := newFixture(t, 73, 10, 80)
	q := fx.randomQuery(80, 0.15)
	bclv, bscale := fx.midpointCLV(fx.tr.Edges[5])

	lo, hi := 1e-8, 0.6
	eval := func(n int) float64 {
		nodes, weights := numeric.GaussLegendre(n)
		pends := make([]float64, n)
		ws := make([]float64, n)
		numeric.MapInterval(nodes, weights, lo, hi, pends, ws)
		logw := make([]float64, n)
		for i, w := range ws {
			logw[i] = math.Log(w)
		}
		sc := fx.p.NewScratch()
		return fx.p.QueryLogLikPendantGrid(bclv, bscale, q, pends, logw, true, sc)
	}
	ref := eval(32)
	prev := math.Inf(1)
	for _, n := range []int{2, 4, 8, 16} {
		err := math.Abs(eval(n) - ref)
		if err > prev*1.5+1e-12 {
			t.Fatalf("n=%d: error %g did not shrink from %g", n, err, prev)
		}
		prev = err
	}
	if prev > 1e-6 {
		t.Fatalf("16-point rule still %g from the 32-point reference", prev)
	}
}
