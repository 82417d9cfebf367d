package numeric

import "math"

// BrentResult holds the outcome of a one-dimensional minimization.
type BrentResult struct {
	X     float64 // argmin
	F     float64 // minimum value
	Iters int     // iterations used
}

// BrentMin minimizes f on [lo, hi] using Brent's method (golden section with
// parabolic interpolation). tol is a relative x tolerance: the search stops
// once the bracket around the best point x is within about 4·(tol·|x| +
// 1e-12), so the minimum is resolved to tol times its own magnitude, with an
// absolute floor of 1e-12 near zero; maxIter bounds the iteration count. The
// function is assumed unimodal on the interval; if it is not, BrentMin still
// returns a local minimum.
//
// This is the workhorse for pendant/proximal branch-length optimization in
// the placement engine, where f is the negative placement log-likelihood.
func BrentMin(f func(float64) float64, lo, hi, tol float64, maxIter int) BrentResult {
	const golden = 0.3819660112501051 // 2 - φ
	if lo > hi {
		lo, hi = hi, lo
	}
	x := lo + golden*(hi-lo)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	iters := 0
	for ; iters < maxIter; iters++ {
		m := 0.5 * (lo + hi)
		tol1 := tol*math.Abs(x) + 1e-12
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(hi-lo) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Attempt parabolic interpolation through (x,fx),(w,fw),(v,fv).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etemp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etemp) && p > q*(lo-x) && p < q*(hi-x) {
				d = p / q
				u := x + d
				if u-lo < tol2 || hi-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = hi - x
			} else {
				e = lo - x
			}
			d = golden * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u < x {
				hi = x
			} else {
				lo = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx = u, fu
		} else {
			if u < x {
				lo = u
			} else {
				hi = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return BrentResult{X: x, F: fx, Iters: iters}
}
