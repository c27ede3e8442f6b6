package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// TestParallelForCoversEachIndexOnce: every index runs exactly once for
// every worker-count shape (serial fallback, fewer workers than items, more
// workers than items, default).
func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 37
		var counts [n]atomic.Int32
		ParallelFor(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Error("fn called for n=0") })
}

// TestQueryPathZeroAlloc extends the zero-allocation contract to the query
// side: after the first decode warms each memoized cache, steady-state
// repeated queries on an unchanged sketch — sparse Recover, L0 Sample, Lp
// SampleAll — allocate nothing.
func TestQueryPathZeroAlloc(t *testing.T) {
	const n = 1 << 10
	st := stream.SparseVector(n, 16, 50, seeded(21))

	rc := sparse.New(n, 20, seeded(22))
	st.Feed(rc)
	if _, ok := rc.Recover(); !ok {
		t.Fatal("sparse decode failed")
	}
	if got := testing.AllocsPerRun(10, func() { rc.Recover() }); got != 0 {
		t.Errorf("sparse.Recover allocates %v times per call on a clean sketch, want 0", got)
	}

	l0 := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(23))
	st.Feed(l0)
	if _, ok := l0.Sample(); !ok {
		t.Fatal("L0 sample failed")
	}
	if got := testing.AllocsPerRun(10, func() { l0.Sample() }); got != 0 {
		t.Errorf("L0Sampler.Sample allocates %v times per call on a clean sketch, want 0", got)
	}

	lp := core.NewLpSampler(core.LpConfig{P: 1.2, N: n, Eps: 0.3, Delta: 0.3, Copies: 3}, seeded(24))
	st.FeedBatch(256, lp)
	lp.SampleAll()
	if got := testing.AllocsPerRun(10, func() { lp.SampleAll() }); got != 0 {
		t.Errorf("LpSampler.SampleAll allocates %v times per call on a clean sketch, want 0", got)
	}
}

// TestLpDirtyQueryAllocBudget: a dirty Lp query re-runs the whole recovery
// stage, and what it allocates is a small constant — the output list and the
// norm sketches' median buffers — that does not grow with the dimension: the
// scan's block buffers, ẑ and its sparse-vector form are scratch the sampler
// keeps. (Before PR 13 every repetition allocated n floats, n entries and a
// map: about 5 MB per query at n = 2^14.)
func TestLpDirtyQueryAllocBudget(t *testing.T) {
	const copies = 5
	allocs := func(n int) float64 {
		lp := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3, Copies: copies}, seeded(25))
		stream.ZipfSigned(n, 1.1, 4000, seeded(26)).FeedBatch(512, lp)
		lp.SampleAll() // grow the scratch
		return testing.AllocsPerRun(5, func() {
			lp.Process(stream.Update{Index: 1, Delta: 0}) // drops the memo, keeps the state
			lp.SampleAll()
		})
	}
	small, large := allocs(1<<10), allocs(1<<16)
	if budget := float64(2*copies + 6); small > budget || large > budget {
		t.Errorf("dirty SampleAll allocates %v times at n=2^10 and %v at n=2^16, budget %v", small, large, budget)
	}
	if large > small+copies {
		t.Errorf("allocations grow with n: %v at n=2^10, %v at n=2^16", small, large)
	}
}
