//go:build !amd64

package numeric

// useAVX is false off amd64: combineRowsGo is the only path.
const useAVX = false

func combineRows20AVX(dst, rows, coef []float64) { combineRowsGo(dst, rows, coef) }
