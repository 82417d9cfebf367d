package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %g, want 0", got)
	}
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	id := Identity(4)
	left := Mul(id, a)
	right := Mul(a, id)
	for i := range a.Data {
		if left.Data[i] != a.Data[i] || right.Data[i] != a.Data[i] {
			t.Fatalf("identity multiplication changed element %d", i)
		}
	}
}

func TestMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	c := Mul(a, b)
	if c.Rows != 2 || c.Cols != 4 {
		t.Fatalf("Mul result shape = %dx%d, want 2x4", c.Rows, c.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(a, a)
}

func TestMulKnownProduct(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Mul element %d = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func randomSymmetric(n int, r *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 3, 4, 8, 20} {
		a := randomSymmetric(n, r)
		vals, vecs, err := SymEig(a)
		if err != nil {
			t.Fatalf("SymEig(n=%d): %v", n, err)
		}
		// Reconstruct V diag(vals) Vᵀ and compare.
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		rec := Mul(Mul(vecs, d), vecs.Transpose())
		for i := range a.Data {
			if !almostEqual(rec.Data[i], a.Data[i], 1e-8) {
				t.Fatalf("n=%d reconstruction mismatch at %d: %g vs %g", n, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

func TestSymEigOrthonormal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randomSymmetric(6, r)
	_, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv := Mul(vecs.Transpose(), vecs)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(vtv.At(i, j), want, 1e-9) {
				t.Fatalf("VᵀV(%d,%d) = %g, want %g", i, j, vtv.At(i, j), want)
			}
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 5)
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	got := map[float64]bool{}
	for _, v := range vals {
		got[math.Round(v*1e9)/1e9] = true
	}
	for _, w := range []float64{3, -1, 5} {
		if !got[w] {
			t.Fatalf("eigenvalues %v missing %g", vals, w)
		}
	}
}

func TestSymEigRejectsAsymmetric(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	if _, _, err := SymEig(a); err == nil {
		t.Fatal("SymEig accepted an asymmetric matrix")
	}
}

func TestSymEigRejectsNonSquare(t *testing.T) {
	if _, _, err := SymEig(NewMatrix(2, 3)); err == nil {
		t.Fatal("SymEig accepted a non-square matrix")
	}
}

// Property: eigenvalues of A sum to trace(A).
func TestSymEigTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(6))
		a := randomSymmetric(n, r)
		vals, _, err := SymEig(a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		return almostEqual(trace, sum, 1e-8*(1+math.Abs(trace)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
