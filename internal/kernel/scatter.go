package kernel

// Counter scatter: cells[idx[t]] += del[t] over a batch of uniformly random
// buckets — the count-sketch fold under every ingest path. The
// hard contract: per-cell accumulation order is exactly batch order, so
// float64 results are bit-identical across every variant (pinned by the
// differential tests).
//
// The fold is one pass through the dispatch table. On amd64 the table entry
// is a bounds-check-free assembly loop, width-gated between a tight unrolled
// fold for cache-resident rows and a software-prefetching fold for rows
// that spill L2 (see kernel_scatter_amd64.s) — the prefetched flavor keeps
// the random cell-line fetch in flight before its add needs it.

// ScatterScratch is a leftover with no state and no effect: the first
// parameter of ScatterAddF64/ScatterAddI64 is ignored. The type and the
// parameter remain only because bench/trace.go calls
// ScatterAddF64(nil, ...) and bench/ could not change when the
// cache-blocked fold they served was deleted. They go with that call
// (ROADMAP, "One benchmark, one gate").
type ScatterScratch struct{}

// ScatterAddF64 folds cells[idx[t]] += del[t] for t = 0..len(idx)-1 in batch
// order through the dispatched fold. idx values must be < len(cells).
func ScatterAddF64(_ *ScatterScratch, cells []float64, idx []uint64, del []float64) {
	active.Load().scatterAddF64(cells, idx, del)
}

// ScatterAddI64 is the integer twin of ScatterAddF64. No sketch folds int64
// cells today; it stays as the accumulator for integer Lp cells (ROADMAP
// item 3), pinned by TestScatterAddDifferential.
func ScatterAddI64(_ *ScatterScratch, cells []int64, idx []uint64, del []int64) {
	active.Load().scatterAddI64(cells, idx, del)
}
