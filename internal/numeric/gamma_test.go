package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLnGammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
	}
	for _, c := range cases {
		if got := LnGamma(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("LnGamma(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestIncompleteGammaBounds(t *testing.T) {
	if v, err := LowerIncompleteGammaRegularized(2, 0); err != nil || v != 0 {
		t.Fatalf("P(2,0) = %g, %v; want 0, nil", v, err)
	}
	v, err := LowerIncompleteGammaRegularized(2, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 1, 1e-12) {
		t.Fatalf("P(2,1e6) = %g, want ~1", v)
	}
}

// For shape a=1 the gamma distribution is Exponential(1): P(1,x) = 1-e^{-x}.
func TestIncompleteGammaExponentialCase(t *testing.T) {
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		v, err := LowerIncompleteGammaRegularized(1, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x)
		if !almostEqual(v, want, 1e-10) {
			t.Errorf("P(1,%g) = %g, want %g", x, v, want)
		}
	}
}

func TestIncompleteGammaRejectsBadArgs(t *testing.T) {
	if _, err := LowerIncompleteGammaRegularized(0, 1); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := LowerIncompleteGammaRegularized(1, -1); err == nil {
		t.Error("x<0 accepted")
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		if r < 0 {
			r = -r
		}
		p := 0.05 + 0.9*float64(r%997)/997.0
		shape := 0.2 + 3*float64(r%31)/31.0
		q, err := GammaQuantile(p, shape, 1)
		if err != nil {
			return false
		}
		back, err := LowerIncompleteGammaRegularized(shape, q)
		if err != nil {
			return false
		}
		return almostEqual(back, p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaQuantileEdges(t *testing.T) {
	if q, err := GammaQuantile(0, 1, 1); err != nil || q != 0 {
		t.Fatalf("quantile(0) = %g, %v", q, err)
	}
	if q, err := GammaQuantile(1, 1, 1); err != nil || !math.IsInf(q, 1) {
		t.Fatalf("quantile(1) = %g, %v", q, err)
	}
	if _, err := GammaQuantile(-0.1, 1, 1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := GammaQuantile(0.5, -1, 1); err == nil {
		t.Fatal("negative shape accepted")
	}
}

func TestGammaQuantileScale(t *testing.T) {
	q1, err := GammaQuantile(0.7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := GammaQuantile(0.7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q3, 3*q1, 1e-9*q3) {
		t.Fatalf("scale property violated: %g vs 3*%g", q3, q1)
	}
}

func TestDiscreteGammaRatesMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 10} {
		for _, k := range []int{1, 2, 4, 8} {
			rates, err := DiscreteGammaRates(alpha, k)
			if err != nil {
				t.Fatalf("alpha=%g k=%d: %v", alpha, k, err)
			}
			if len(rates) != k {
				t.Fatalf("got %d rates, want %d", len(rates), k)
			}
			mean := 0.0
			for _, r := range rates {
				mean += r
				if r < 0 {
					t.Fatalf("negative rate %g (alpha=%g,k=%d)", r, alpha, k)
				}
			}
			mean /= float64(k)
			if !almostEqual(mean, 1, 1e-9) {
				t.Fatalf("alpha=%g k=%d mean rate %g, want 1", alpha, k, mean)
			}
		}
	}
}

func TestDiscreteGammaRatesMonotone(t *testing.T) {
	rates, err := DiscreteGammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("rates not strictly increasing: %v", rates)
		}
	}
	// Small alpha means strong heterogeneity: lowest category near zero.
	if rates[0] > 0.2 {
		t.Fatalf("alpha=0.5 lowest rate %g suspiciously high", rates[0])
	}
}

func TestDiscreteGammaLargeAlphaApproachesUniform(t *testing.T) {
	rates, err := DiscreteGammaRates(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if !almostEqual(r, 1, 0.1) {
			t.Fatalf("alpha=1000 rate %g should be close to 1 (rates=%v)", r, rates)
		}
	}
}

func TestDiscreteGammaRejectsBadArgs(t *testing.T) {
	if _, err := DiscreteGammaRates(0, 4); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := DiscreteGammaRates(1, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestBrentMinQuadratic(t *testing.T) {
	res := BrentMin(func(x float64) float64 { return (x - 3.25) * (x - 3.25) }, 0, 10, 1e-10, 200)
	if !almostEqual(res.X, 3.25, 1e-7) {
		t.Fatalf("argmin = %g, want 3.25", res.X)
	}
	if !almostEqual(res.F, 0, 1e-12) {
		t.Fatalf("min = %g, want 0", res.F)
	}
}

func TestBrentMinAsymmetric(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 2*x } // min at ln 2
	res := BrentMin(f, 0, 5, 1e-12, 200)
	if !almostEqual(res.X, math.Ln2, 1e-7) {
		t.Fatalf("argmin = %g, want ln2=%g", res.X, math.Ln2)
	}
}

func TestBrentMinBoundaryMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left boundary.
	res := BrentMin(func(x float64) float64 { return x }, 1, 2, 1e-9, 200)
	if res.X > 1.001 {
		t.Fatalf("boundary minimum: got %g, want ~1", res.X)
	}
}

func TestBrentMinReversedBounds(t *testing.T) {
	res := BrentMin(func(x float64) float64 { return (x - 1) * (x - 1) }, 5, -5, 1e-10, 200)
	if !almostEqual(res.X, 1, 1e-6) {
		t.Fatalf("argmin with reversed bounds = %g, want 1", res.X)
	}
}

func TestBrentMinStaysInBounds(t *testing.T) {
	// Property: the argmin returned never leaves the bracketing interval,
	// whatever the (possibly nasty) objective does.
	if err := quick.Check(func(seed int64) bool {
		r := seed
		if r < 0 {
			r = -r
		}
		lo := float64(r%100) / 10
		hi := lo + 0.1 + float64(r%37)
		f := func(x float64) float64 { return math.Sin(x*7) + 0.1*x }
		res := BrentMin(f, lo, hi, 1e-8, 60)
		return res.X >= lo-1e-9 && res.X <= hi+1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBrentMinFlatFunction(t *testing.T) {
	res := BrentMin(func(float64) float64 { return 3 }, 0, 1, 1e-9, 100)
	if res.F != 3 || res.X < 0 || res.X > 1 {
		t.Fatalf("flat objective: %+v", res)
	}
}

// TestBrentMinToleranceIsRelative pins what tol means: a tolerance relative
// to the best point, not an absolute one. The same objective stretched by
// 2^10 and 2^20 along x — every trial point scales exactly — takes the same
// iterations to the same scaled optimum (an absolute tolerance takes 14
// rather than 9 at 2^20). Every optimum is within 4·tol·|x| of the true one,
// and the 2^20 stretch is off by far more than tol in absolute terms.
func TestBrentMinToleranceIsRelative(t *testing.T) {
	const tol = 1e-3
	g := func(u float64) float64 { return math.Exp(u) - 2*u } // min at ln 2
	base := BrentMin(g, 0, 5, tol, 200)
	for _, c := range []float64{1, 0x1p10, 0x1p20} {
		res := BrentMin(func(x float64) float64 { return g(x / c) }, 0, 5*c, tol, 200)
		if res.Iters != base.Iters || res.X/c != base.X {
			t.Errorf("stretched by %g: %d iterations to x/c = %v, unstretched %d to %v", c, res.Iters, res.X/c, base.Iters, base.X)
		}
		off := math.Abs(res.X - c*math.Ln2)
		if off > 4*tol*res.X || (c == 0x1p20 && off <= tol) {
			t.Errorf("stretched by %g: the optimum is off by %g, x = %g", c, off, res.X)
		}
	}
}
