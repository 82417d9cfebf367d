// Package numeric provides the small dense linear-algebra and special-function
// kernels that the substitution-model and likelihood layers are built on:
// symmetric eigendecomposition (cyclic Jacobi), matrix helpers, the discrete
// Gamma rate-heterogeneity construction, and a one-dimensional Brent
// minimizer used for branch-length optimization.
//
// Everything operates on row-major []float64 buffers to avoid per-element
// interface or bounds-check overhead in the hot paths of the likelihood
// engine.
package numeric

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Mul returns a*b. It panics if the shapes are incompatible, since shape
// mismatches are programming errors in this codebase.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("numeric: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// jacobiMaxSweeps bounds the number of full Jacobi sweeps. Substitution-model
// matrices are tiny (4×4 or 20×20) and converge in well under 20 sweeps.
const jacobiMaxSweeps = 100

// SymEig computes the eigendecomposition of the symmetric n×n matrix a using
// the cyclic Jacobi method. It returns the eigenvalues and a matrix whose
// COLUMNS are the corresponding orthonormal eigenvectors, i.e.
// a = V * diag(vals) * Vᵀ. The input matrix is not modified.
//
// SymEig returns an error if a is not square, not symmetric (beyond a small
// tolerance), or fails to converge.
func SymEig(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("numeric: SymEig requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	// Symmetry check with a tolerance scaled to the matrix magnitude.
	scale := 0.0
	for _, v := range a.Data {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	tol := 1e-9 * math.Max(scale, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, fmt.Errorf("numeric: SymEig input not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}

	w := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-30 {
			vals = make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = w.At(i, i)
			}
			return vals, v, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation G(p,q,θ) on both sides: w = GᵀwG.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("numeric: SymEig failed to converge in %d sweeps", jacobiMaxSweeps)
}
