//go:build !amd64

package numeric

// HasAVX is false off amd64: every kernel runs its Go reference.
const HasAVX = false

func combineRows20AVX(dst, rows, coef []float64) { combineRowsGo(dst, rows, coef) }
