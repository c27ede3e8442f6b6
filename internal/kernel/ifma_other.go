//go:build !amd64

package kernel

// avx512SyndromeFoldIFMA is unreachable off amd64: no table here sets ifma.
// It exists so that table.syndromeFold compiles as a direct call everywhere.
func avx512SyndromeFoldIFMA(synd, d, a []uint64) { scalarSyndromeFold(synd, d, a) }
