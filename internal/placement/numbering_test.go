package placement

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/phylo"
	"phylomem/internal/seq"
)

// permutePatterns returns comp with its patterns renumbered by a seeded
// random permutation. Patterns[t], Weights and SiteToPattern move together,
// so it describes the same alignment under another numbering.
func permutePatterns(comp *seq.Compressed, seed int64) *seq.Compressed {
	perm := rand.New(rand.NewSource(seed)).Perm(comp.NumPatterns())
	out := &seq.Compressed{
		Alphabet:      comp.Alphabet,
		Labels:        comp.Labels,
		Patterns:      make([][]uint32, len(comp.Patterns)),
		Weights:       make([]float64, len(comp.Weights)),
		SiteToPattern: make([]int, len(comp.SiteToPattern)),
	}
	for t, row := range comp.Patterns {
		out.Patterns[t] = make([]uint32, len(row))
		for p, code := range row {
			out.Patterns[t][perm[p]] = code
		}
	}
	for p, w := range comp.Weights {
		out.Weights[perm[p]] = w
	}
	for site, p := range comp.SiteToPattern {
		out.SiteToPattern[site] = perm[p]
	}
	return out
}

// TestPatternNumberingBitIdentical: how seq.Compress numbers the patterns
// cannot move a placement bit. Every per-pattern value (CLV entries, scale
// counters, lookup rows) is computed independently of its index, and phase 1
// and phase 2 fold a query's sites in site order, so the engine built on a
// randomly renumbered copy of the alignment writes the same phase-1 scores and
// jplace bytes: NT reads with the lookup table, the same reads at the slot
// floor with spill, and AA queries under bayes with EDPL.
func TestPatternNumberingBitIdentical(t *testing.T) {
	nt, aa := digestShapes[0], digestShapes[2]
	for _, tc := range []struct {
		name  string
		shape digestShape
		v     variant
	}{
		{"nt-lookup", nt, variant{}},
		{"nt-floor-spill", nt, variant{mem: memFloor, spill: "spill"}},
		{"aa-bayes-edpl", aa, variant{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.shape.build(t)
			renumbered := *fx
			part, err := phylo.NewPartition(fx.part.Model, fx.part.Rates, permutePatterns(fx.part.Comp, 46), fx.tr)
			if err != nil {
				t.Fatal(err)
			}
			renumbered.part = part
			cfg := tc.v.config(fx, tc.shape.config())
			var docs [2][]byte
			var scores [2][]float64
			for i, f := range []*fixture{fx, &renumbered} {
				doc, eng := placeJplace(t, f, cfg, tc.v, false)
				tc.v.checkRegime(t, identityFixture{}, f, eng)
				// Phase 1's scores only pick candidates, so a changed bit there
				// rarely reaches the jplace: compare the score matrix itself.
				scores[i] = make([]float64, len(f.queries)*f.tr.NumBranches())
				if err := eng.prescore(context.Background(), f.queries, scores[i]); err != nil {
					t.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				docs[i] = doc
			}
			for i, s := range scores[1] {
				if math.Float64bits(s) != math.Float64bits(scores[0][i]) {
					t.Fatalf("renumbering the patterns changed phase-1 score %d: %v, was %v", i, s, scores[0][i])
				}
			}
			if !bytes.Equal(docs[0], docs[1]) {
				t.Fatalf("renumbering the patterns changed the jplace (%d vs %d bytes)", len(docs[0]), len(docs[1]))
			}
		})
	}
}
