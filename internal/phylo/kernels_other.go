//go:build !amd64

package phylo

// useAVX is false off amd64: the Go 4- and 20-state kernels are the only
// path, so the two AVX entry points below are never reached.
const useAVX = false

func (p *Partition) updateCLVAVX(dst []float64, dstScale []int32, a, b Operand, lo, hi int, sc *Scratch) {
	panic("phylo: no AVX kernels off amd64")
}

func (p *Partition) queryLogLikAVX(bclv []float64, bscale []int32, cover []coveredSite, piP []float64, sc *Scratch) float64 {
	panic("phylo: no AVX kernels off amd64")
}
