package placement

import (
	"fmt"
	"math"
	"testing"

	"phylomem/internal/jplace"
)

// bayesConfig returns the test defaults with the posterior path and EDPL on.
func bayesConfig() Config {
	cfg := testConfig()
	cfg.Scoring = ScoringBayes
	cfg.EDPL = true
	return cfg
}

func TestBayesOutputInvariants(t *testing.T) {
	fx := newFixture(t, 81, 20, 100, 15)
	res, eng := placeWith(t, fx, bayesConfig())
	defer eng.Close()
	if got := eng.Stats().CandidatesIntegrated; got == 0 {
		t.Fatal("bayes run integrated no candidates")
	}
	if got := eng.Stats().EDPLCount; got != len(fx.queries) {
		t.Fatalf("EDPLCount = %d, want %d", got, len(fx.queries))
	}
	for _, q := range res.Queries {
		if len(q.Placements) == 0 {
			t.Fatalf("query %s has no placements", q.Name)
		}
		if q.EDPL == nil {
			t.Fatalf("query %s missing EDPL", q.Name)
		}
		if *q.EDPL < 0 || math.IsNaN(*q.EDPL) {
			t.Fatalf("query %s EDPL = %g", q.Name, *q.EDPL)
		}
		sum, prev := 0.0, math.Inf(1)
		for _, p := range q.Placements {
			if p.PostProb < 0 || p.PostProb > 1 || math.IsNaN(p.PostProb) {
				t.Fatalf("query %s post_prob = %g", q.Name, p.PostProb)
			}
			if p.PostProb > prev {
				t.Fatalf("query %s placements not sorted by post_prob", q.Name)
			}
			prev = p.PostProb
			if p.LikeWeightRatio < 0 || p.LikeWeightRatio > 1 {
				t.Fatalf("query %s LWR = %g", q.Name, p.LikeWeightRatio)
			}
			if math.IsNaN(p.LogLikelihood) || math.IsInf(p.LogLikelihood, 0) {
				t.Fatalf("query %s loglik = %g", q.Name, p.LogLikelihood)
			}
			sum += p.PostProb
		}
		if sum > 1+1e-9 {
			t.Fatalf("query %s post_prob sum = %g", q.Name, sum)
		}
	}
}

// TestBayesDifferentialAgreement is the acceptance-criterion differential:
// on a simulated workload the posterior mode must agree with ML on the best
// edge for at least 90% of queries, and the two candidate rankings must be
// strongly positively correlated — the modes weigh the same likelihood
// surface, they do not reshuffle it.
func TestBayesDifferentialAgreement(t *testing.T) {
	fx := newFixture(t, 82, 32, 140, 30)
	mlRes, mlEng := placeWith(t, fx, testConfig())
	defer mlEng.Close()
	bRes, bEng := placeWith(t, fx, bayesConfig())
	defer bEng.Close()

	agree, corrPos, corrN := 0, 0, 0
	for i := range mlRes.Queries {
		mq, bq := mlRes.Queries[i], bRes.Queries[i]
		if mq.Placements[0].EdgeNum == bq.Placements[0].EdgeNum {
			agree++
		}
		// Rank correlation over shared candidate edges: count strictly
		// positive Spearman per query (needs ≥2 shared edges).
		rank := make(map[int]int, len(bq.Placements))
		for j, p := range bq.Placements {
			rank[p.EdgeNum] = j
		}
		var xs, ys []float64
		for j, p := range mq.Placements {
			if k, ok := rank[p.EdgeNum]; ok {
				xs = append(xs, float64(j))
				ys = append(ys, float64(k))
			}
		}
		if len(xs) < 2 {
			continue
		}
		corrN++
		var cov float64
		mx := float64(len(xs)-1) / 2
		for k := range xs {
			cov += (xs[k] - mx) * (ys[k] - meanOf(ys))
		}
		if cov > 0 {
			corrPos++
		}
	}
	rate := float64(agree) / float64(len(mlRes.Queries))
	if rate < 0.9 {
		t.Fatalf("ML-vs-Bayes top-1 agreement = %.2f (%d/%d), want >= 0.9",
			rate, agree, len(mlRes.Queries))
	}
	if corrN > 0 && float64(corrPos)/float64(corrN) < 0.9 {
		t.Fatalf("only %d/%d queries have positively correlated rankings", corrPos, corrN)
	}
}

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestBayesDedupFanOut: duplicated query content must fan out the posterior
// scores and EDPL of the one distinct scoring, and produce the same bytes
// the dedup-off engine computes redundantly.
func TestBayesDedupFanOut(t *testing.T) {
	fx := newFixture(t, 84, 20, 100, 8)
	dup := append([]Query(nil), fx.queries...)
	for i, q := range fx.queries {
		dup = append(dup, Query{Name: fmt.Sprintf("dup%02d", i), Codes: q.Codes})
	}
	fxDup := &fixture{tr: fx.tr, part: fx.part, msa: fx.msa, queries: dup}

	on, engOn := placeWith(t, fxDup, bayesConfig())
	defer engOn.Close()
	if engOn.Stats().QueriesDeduped == 0 {
		t.Fatal("duplicate queries were not deduped")
	}
	cfgOff := bayesConfig()
	cfgOff.NoDedup = true
	off, engOff := placeWith(t, fxDup, cfgOff)
	defer engOff.Close()

	if !sameJplace(t, fxDup, cfgOff, on.Queries, off.Queries) {
		t.Error("dedup fan-out changed bayes output bytes")
	}
	// The duplicate of query i must carry identical placements and EDPL.
	n := len(fx.queries)
	for i := 0; i < n; i++ {
		a, b := on.Queries[i], on.Queries[n+i]
		if len(a.Placements) != len(b.Placements) {
			t.Fatalf("dup of %s has %d placements, original %d", a.Name, len(b.Placements), len(a.Placements))
		}
		for j := range a.Placements {
			if a.Placements[j] != b.Placements[j] {
				t.Fatalf("dup of %s differs at placement %d", a.Name, j)
			}
		}
		if *a.EDPL != *b.EDPL {
			t.Fatalf("dup of %s has EDPL %g, original %g", a.Name, *b.EDPL, *a.EDPL)
		}
	}
}

// TestBayesQuadratureRefinement: engine-level convergence of the posterior —
// refining the quadrature grids must move best-placement posteriors toward
// the fine-grid reference, and the default order must already be close.
func TestBayesQuadratureRefinement(t *testing.T) {
	fx := newFixture(t, 85, 16, 120, 10)
	fine := bayesConfig()
	fine.BayesPendantNodes = 24
	fine.BayesProximalNodes = 12
	refRes, refEng := placeWith(t, fx, fine)
	defer refEng.Close()

	bestPP := func(res *Result) []float64 {
		out := make([]float64, len(res.Queries))
		for i, q := range res.Queries {
			out[i] = q.Placements[0].PostProb
		}
		return out
	}
	ref := bestPP(refRes)

	maxErr := func(pend, prox int) float64 {
		cfg := bayesConfig()
		cfg.BayesPendantNodes = pend
		cfg.BayesProximalNodes = prox
		res, eng := placeWith(t, fx, cfg)
		defer eng.Close()
		got := bestPP(res)
		worst := 0.0
		for i := range ref {
			if d := math.Abs(got[i] - ref[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	coarse := maxErr(2, 2)
	defaults := maxErr(8, 4)
	if defaults > coarse+1e-12 {
		t.Fatalf("refinement moved away from the fine grid: coarse err %g, default err %g", coarse, defaults)
	}
	if defaults > 0.02 {
		t.Fatalf("default grid posterior off by %g from the fine grid, want <= 0.02", defaults)
	}
}

// TestBayesEDPLInvariants: EDPL is zero exactly when the placement mass sits
// on one point, and is insensitive to how much of the tail the filter keeps
// reporting — more kept candidates may only reveal more spread, never less.
func TestBayesEDPLInvariants(t *testing.T) {
	fx := newFixture(t, 86, 20, 100, 12)
	single := bayesConfig()
	single.FilterMax = 1
	res, eng := placeWith(t, fx, single)
	defer eng.Close()
	for _, q := range res.Queries {
		if len(q.Placements) != 1 {
			t.Fatalf("query %s kept %d placements under FilterMax=1", q.Name, len(q.Placements))
		}
		if *q.EDPL != 0 {
			t.Fatalf("single-placement query %s has EDPL %g, want 0", q.Name, *q.EDPL)
		}
	}
	st := eng.Stats()
	if st.EDPLSum != 0 || st.EDPLMax != 0 {
		t.Fatalf("EDPL stats nonzero for single placements: %+v", st)
	}
}

// bayesByName mirrors byName/assertSameByName over the full bayes record:
// placements including post_prob, plus the EDPL annotation.
func assertSameBayes(t *testing.T, ref map[string]jplace.Placements, got []jplace.Placements, label string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(ref))
	}
	for _, q := range got {
		want, ok := ref[q.Name]
		if !ok {
			t.Fatalf("%s: unexpected query %q", label, q.Name)
		}
		if !queryPlacementsEqual(q, want) {
			t.Errorf("%s: placements changed for %q", label, q.Name)
		}
		switch {
		case (q.EDPL == nil) != (want.EDPL == nil):
			t.Errorf("%s: EDPL presence changed for %q", label, q.Name)
		case q.EDPL != nil && *q.EDPL != *want.EDPL:
			t.Errorf("%s: EDPL changed for %q: %g vs %g", label, q.Name, *q.EDPL, *want.EDPL)
		}
	}
}

// TestMetamorphicBayes: the posterior scores and EDPL are per-query facts —
// permuting the query order on a warm engine and re-chunking the stream must
// not change any of them.
func TestMetamorphicBayes(t *testing.T) {
	fx := newFixture(t, 87, 24, 100, 16)
	res, eng := placeWith(t, fx, bayesConfig())
	ref := byName(t, res.Queries)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 5, 1000} {
		cfg := bayesConfig()
		cfg.ChunkSize = chunk
		got, eng := placeWith(t, fx, cfg)
		assertSameBayes(t, ref, got.Queries, fmt.Sprintf("chunk=%d", chunk))
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reversed query order, fresh engine: same per-query records.
	rev := make([]Query, len(fx.queries))
	for i, q := range fx.queries {
		rev[len(rev)-1-i] = q
	}
	fxRev := &fixture{tr: fx.tr, part: fx.part, msa: fx.msa, queries: rev}
	got, engRev := placeWith(t, fxRev, bayesConfig())
	defer engRev.Close()
	assertSameBayes(t, ref, got.Queries, "reversed")
}
