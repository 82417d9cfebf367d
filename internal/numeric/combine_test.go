package numeric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// combineNaive is the definition CombineRows computes: one chain per entry,
// from +0, in ascending k.
func combineNaive(dst, rows, coef []float64) {
	n := len(dst)
	for j := range dst {
		sum := 0.0
		for k := range coef {
			sum += coef[k] * rows[k*n+j]
		}
		dst[j] = sum
	}
}

// sameBits compares two results bit for bit. Two NaNs count as equal: IEEE
// leaves open which operand's payload a NaN result carries, and the
// kernels' inputs (P matrices, CLVs) hold none.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkCombine runs every path CombineRows can take on one input and
// requires the same bits from each: the naive chain, the Go reference, the
// dispatch and, where this CPU has it, the AVX kernel called directly.
func checkCombine(t *testing.T, label string, width int, rows, coef []float64) {
	t.Helper()
	want := make([]float64, width)
	combineNaive(want, rows, coef)
	paths := map[string]func(dst, rows, coef []float64){
		"go":       combineRowsGo,
		"dispatch": CombineRows,
	}
	if HasAVX && width == 20 {
		paths["avx"] = combineRows20AVX
	}
	for name, f := range paths {
		got := make([]float64, width)
		for j := range got {
			got[j] = math.NaN() // every entry must be written
		}
		f(got, rows, coef)
		for j := range want {
			if !sameBits(want[j], got[j]) {
				t.Fatalf("%s/%s: dst[%d] = %v (%#x), naive chain %v (%#x)",
					label, name, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// edgeValue draws from the values where a reordered or fused sum shows:
// signed zeros, subnormals, magnitudes near the exponent limits, and
// ordinary numbers.
func edgeValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return -1e-310 * rng.Float64()
	case 4:
		return 1e300 * (rng.Float64() + 0.5)
	case 5:
		return -1e300 * (rng.Float64() + 0.5)
	case 6:
		return 1e-300 * rng.Float64()
	default:
		return 2*rng.Float64() - 1
	}
}

// TestCombineRowsBitwise: the AVX kernel, the Go reference and the naive
// chain agree bit for bit at widths 4, 7 (a column outside the blocks of
// four) and 20, over 0, 1, 20 and 80 rows, on edge values, an all-zero coef
// and the 0/1 coefficient vectors a tip operand passes.
func TestCombineRowsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, width := range []int{4, 7, 20} {
		for _, nrows := range []int{0, 1, 20, 80} {
			rows, coef := make([]float64, nrows*width), make([]float64, nrows)
			for trial := 0; trial < 20; trial++ {
				for i := range rows {
					rows[i] = edgeValue(rng)
				}
				for k := range coef {
					coef[k] = edgeValue(rng)
				}
				checkCombine(t, "edge", width, rows, coef)

				clear(coef)
				checkCombine(t, "zero-coef", width, rows, coef)

				// A tip: P entries in [0, 1], coefficients the code's bits.
				for i := range rows {
					rows[i] = rng.Float64()
					if rng.Intn(5) == 0 {
						rows[i] = 0
					}
				}
				code := rng.Uint32()
				for k := range coef {
					coef[k] = float64(code >> uint(k%32) & 1)
				}
				checkCombine(t, "tip", width, rows, coef)
			}
		}
	}
}

// FuzzCombineRows holds the paths to the naive chain on arbitrary bits: the
// input is a width selector (even: 20, the AVX width; odd: 1–8) and raw
// little-endian float64s, split into coefficients and rows.
func FuzzCombineRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		width := 20
		if sel%2 == 1 {
			width = 1 + int(sel/2)%8
		}
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		nrows := min(len(vals)/(width+1), 100)
		checkCombine(t, "fuzz", width, vals[nrows:nrows+nrows*width], vals[:nrows])
	})
}

// TestCombineRowsDispatch: on linux/amd64 the AVX kernel runs exactly when
// the kernel lists the avx flag, so a broken CPUID or XGETBV check cannot
// fall back to the Go path unnoticed.
func TestCombineRowsDispatch(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the flag list is read from linux's /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	hasAVX := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				hasAVX = hasAVX || f == "avx"
			}
			break
		}
	}
	if HasAVX != hasAVX {
		t.Fatalf("HasAVX = %v, /proc/cpuinfo lists avx: %v", HasAVX, hasAVX)
	}
	t.Logf("20-wide CombineRows runs the AVX kernel: %v", HasAVX)
}

var combineSink float64

// BenchmarkCombineRows times the 20-wide product at 20 rows (a P·child of
// the pruning kernel, a P-matrix row) and 80 rows (a Γ4 lookup row).
func BenchmarkCombineRows(b *testing.B) {
	for _, nrows := range []int{20, 80} {
		b.Run(fmt.Sprintf("20x%d", nrows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dst, rows, coef := make([]float64, 20), make([]float64, nrows*20), make([]float64, nrows)
			for i := range rows {
				rows[i] = rng.Float64()
			}
			for k := range coef {
				coef[k] = rng.Float64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CombineRows(dst, rows, coef)
			}
			combineSink = dst[0]
		})
	}
}
