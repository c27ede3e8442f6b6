package kernel

// Counter scatter: cells[idx[t]] += del[t] over a batch of uniformly random
// buckets — the count-sketch fold under every ingest path. It is one Go loop
// on every CPU, not a dispatched entry: the amd64 assembly it replaced (an
// unrolled loop for cache-resident rows and a prefetching one for rows past
// L2) made neither the count-sketch fold nor any benchmark workload faster.
// Per-cell accumulation order is batch order, so the float64 cells are the
// same bits on every CPU.

// ScatterScratch is a leftover with no state and no effect: the first
// parameter of ScatterAddF64 is ignored. The type and the parameter remain
// only because bench/trace.go calls ScatterAddF64(nil, ...) and bench/ could
// not change when the cache-blocked fold they served was deleted. They go
// with that call (ROADMAP, "One benchmark, one gate").
type ScatterScratch struct{}

// ScatterAddF64 folds cells[idx[t]] += del[t] for t = 0..len(idx)-1 in batch
// order. idx values must be < len(cells).
func ScatterAddF64(_ *ScatterScratch, cells []float64, idx []uint64, del []float64) {
	del = del[:len(idx)]
	for t, b := range idx {
		cells[b] += del[t]
	}
}
