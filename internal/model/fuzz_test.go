package model

import (
	"math"
	"testing"
)

// FuzzParseSpec: a model spec read from a reference database or a command
// line never panics the parser, and an accepted one is a usable model: 4 or
// 20 states, at most MaxGammaCategories rate categories (every CLV is that
// many rates wide), finite non-negative rates whose weights sum to one, and
// finite transition probabilities at every rate.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"JC", "K80{4.5}", "HKY", "F81", "TN93{3/5}", "GTR{1/2/3/4/5/6}", "POISSON", "SYNAA",
		"GTR+G", "GTR+G8", "GTR+G4{0.5}", "SYNAA+G4", "JC+G32", "JC+G33", "JC+G0", "GTR+G4{1e-300}", "GTR+G4{1e300}",
		"GTR+G4{-1}", "GTR+G4{NaN}", "GTR{1/1/1/1/1/Inf}", "K80{0}", "GTR{", "G+G", "+G", "JC+", "JC+G{}", "JC+G4{1/2}"} {
		f.Add(s, false)
	}
	freqs := []float64{0.1, 0.2, 0.3, 0.4}
	f.Fuzz(func(t *testing.T, spec string, empirical bool) {
		if len(spec) > 256 {
			return // bound fuzz work, not an invariant
		}
		var fr []float64
		if empirical {
			fr = freqs
		}
		m, rates, err := ParseSpec(spec, fr)
		if err != nil {
			return
		}
		if s := m.States(); s != 4 && s != 20 {
			t.Fatalf("ParseSpec(%q): %d states", spec, s)
		}
		if n := rates.NumRates(); n < 1 || n > MaxGammaCategories || len(rates.Weights) != n {
			t.Fatalf("ParseSpec(%q): %d rates, %d weights (cap %d)", spec, n, len(rates.Weights), MaxGammaCategories)
		}
		sum := 0.0
		for i, r := range rates.Rates {
			if !(r >= 0) || math.IsInf(r, 0) {
				t.Fatalf("ParseSpec(%q): rate %d is %v", spec, i, r)
			}
			sum += rates.Weights[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("ParseSpec(%q): weights sum to %v", spec, sum)
		}
		p := make([]float64, m.States()*m.States())
		for _, r := range rates.Rates {
			m.TransitionMatrix(p, 0.1, r)
			for i, v := range p {
				if !(v >= 0) || math.IsInf(v, 0) {
					t.Fatalf("ParseSpec(%q): P(0.1, rate %v)[%d] = %v", spec, r, i, v)
				}
			}
		}
	})
}
