package numeric

import "fmt"

// CombineRows sets dst to a linear combination of the rows of a row-major
// len(coef)×len(dst) matrix:
//
//	dst[j] = Σ_k coef[k]·rows[k·len(dst)+j]
//
// Each entry is one chain, started from +0 and added in ascending k, a
// product rounded and then a sum rounded, never fused. On amd64 CPUs with
// AVX a 20-wide dst is computed by an assembly kernel that runs the twenty
// chains in 4-lane vectors; everything else runs combineRowsGo. Both
// perform the same operations on every entry, so the result does not depend
// on which path ran.
//
// It is the 20-state engine's dense product: P matrices from the eigen
// system, the phase-1 lookup rows, the pruning step's tip tables and, off
// AVX, P·child in the Go pruning kernel.
func CombineRows(dst, rows, coef []float64) {
	if len(rows) != len(coef)*len(dst) {
		panic(fmt.Sprintf("numeric: CombineRows has %d row values, want %d×%d", len(rows), len(coef), len(dst)))
	}
	if HasAVX && len(dst) == 20 {
		combineRows20AVX(dst, rows, coef)
		return
	}
	combineRowsGo(dst, rows, coef)
}

// combineRowsGo is CombineRows in Go: four columns per pass over k, so coef[k]
// is loaded once for four independent chains; a leftover column runs the
// same chain alone.
func combineRowsGo(dst, rows, coef []float64) {
	n := len(dst)
	j := 0
	for ; j+4 <= n; j += 4 {
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for k, c := range coef {
			r := rows[k*n+j : k*n+j+4 : k*n+j+4]
			s0 += c * r[0]
			s1 += c * r[1]
			s2 += c * r[2]
			s3 += c * r[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		sum := 0.0
		for k, c := range coef {
			sum += c * rows[k*n+j]
		}
		dst[j] = sum
	}
}
