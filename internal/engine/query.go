package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Query-side parallelism: the ingestion engine shards updates across
// workers; ParallelFor gives the decode/query path the same treatment.
// Graph connectivity probes one sampler per component per Borůvka round,
// and the probes decode independently, so a bounded worker pool turns
// query latency from the sum of the per-part decodes into the maximum.

// ParallelFor runs fn(i) for every i in [0, n) across a bounded pool of
// worker goroutines. workers <= 0 selects GOMAXPROCS; the pool never
// exceeds n. Work is handed out through an atomic counter, so unevenly
// sized items (levels that early-exit their Chien scan vs. levels that walk
// all of [n]) balance across workers. fn must be safe to call concurrently
// for distinct i; calls for the same i never happen twice. On a single-CPU
// machine (or workers == 1) the loop degrades to a plain serial for loop
// with no goroutine or allocation overhead.
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
