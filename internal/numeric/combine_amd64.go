package numeric

// HasAVX reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS
// saves the YMM registers across context switches (OSXSAVE, bit 27, and
// XCR0 bits 1 and 2 for the SSE and AVX state). The CPU is queried once,
// at package initialization; it is the one answer every AVX kernel of the
// module dispatches on (CombineRows here, the pruning kernels and query
// walks of phylo).
var HasAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}()

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of extended control register 0.
func xgetbv0() uint32

// combineRows20AVX is CombineRows for len(dst) == 20, in AVX: five 4-lane
// accumulators, one VMULPD then one VADDPD per row and lane group.
//
//go:noescape
func combineRows20AVX(dst, rows, coef []float64)
