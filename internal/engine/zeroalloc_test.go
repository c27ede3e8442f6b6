package engine

import (
	"math/rand/v2"
	"runtime"
	"testing"

	streamsample "repro"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/duplicates"
	"repro/internal/moments"
	"repro/internal/norm"
	"repro/internal/prng"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// TestBatchedHotPathsZeroAlloc pins the PR-2 acceptance criterion across
// every BatchSink the engine drives: after one warm-up call grows the
// per-sketch scratch, steady-state ProcessBatch calls allocate nothing.
// (The L0 sampler is exercised through its sparse levels plus its own
// membership scratch; the Lp sampler covers countsketch.AddBatch and
// norm batch paths end to end.)
func TestBatchedHotPathsZeroAlloc(t *testing.T) {
	const n = 1 << 10
	st := stream.RandomTurnstile(n, 512, 50, rand.New(rand.NewPCG(91, 92)))
	sinks := []struct {
		name string
		sink stream.BatchSink
	}{
		{"countsketch", countsketch.New(16, 6, seeded(1))},
		{"countsketch-64x5", csFactory(2)(0)},
		{"distinct", distinct.New(n, 8, seeded(3))},
		{"sparse", sparse.New(n, 8, seeded(4))},
		{"ams", norm.NewAMS(5, 4, seeded(5))},
		{"stable", norm.NewStable(1.4, 20, seeded(6))},
		{"l0sampler", core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(7))},
		{"l0sampler-nested", core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2, NestedLevels: true}, seeded(7))},
		{"lpsampler", core.NewLpSampler(core.LpConfig{P: 1.2, N: n, Eps: 0.3, Delta: 0.3, Copies: 3}, seeded(8))},
	}
	for _, tc := range sinks {
		tc.sink.ProcessBatch(st) // grow scratch
		if got := testing.AllocsPerRun(5, func() { tc.sink.ProcessBatch(st) }); got != 0 {
			t.Errorf("%s: ProcessBatch allocates %v times per call, want 0", tc.name, got)
		}
	}
}

// TestScalarHotPathsZeroAlloc is the same contract on the one-update-at-a-time
// paths. The L0 and Lp samplers (and, through the latter, every
// DuplicateFinder.Observe) and the heavy-hitters and F_p sketches buffer their
// updates in an array allocated by the first call and fold a full buffer
// through their batch path, whose scratch the first fold grows; the sparse
// recoverer, the distinct estimator and the two-pass sampler fold each update
// as a batch of one. After one fill, no call allocates: the measured run spans
// two and a half buffer fills and must allocate nothing at all (a per-call
// average would round a few allocations away).
func TestScalarHotPathsZeroAlloc(t *testing.T) {
	const n = 1 << 10
	const fill = 256 // stream.Pending's buffer
	u := stream.Update{Index: 77, Delta: 3}
	lp1 := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3, Copies: 3}, seeded(14))
	lp := core.NewLpSampler(core.LpConfig{P: 1.2, N: n, Eps: 0.3, Delta: 0.3, Copies: 3}, seeded(15))
	dup := streamsample.NewDuplicateFinder(n, streamsample.WithSeed(16))
	hh := streamsample.NewHeavyHitters(1, 0.1, n, streamsample.WithSeed(17))
	fp := moments.NewFp(3, n, 2, seeded(18))
	l0 := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(19))
	l0Nested := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2, NestedLevels: true}, seeded(19))
	rc := sparse.New(n, 8, seeded(20))
	est := distinct.New(n, 8, seeded(21))
	tp1 := core.NewTwoPassL0Sampler(n, 0.2, seeded(22))
	tp2 := core.NewTwoPassL0Sampler(n, 0.2, seeded(22))
	tp2.EndPass1()
	paths := []struct {
		name string
		fn   func()
	}{
		{"LpSampler.Process p=1", func() { lp1.Process(u) }},
		{"LpSampler.Process p=1.2", func() { lp.Process(u) }},
		{"DuplicateFinder.Observe", func() { dup.Observe(77) }},
		{"HeavyHitters.Update", func() { hh.Update(77, 3) }},
		{"FpEstimator.Process", func() { fp.Process(u) }},
		{"L0Sampler.Process", func() { l0.Process(u) }},
		{"L0Sampler.Process nested", func() { l0Nested.Process(u) }},
		{"sparse.Recoverer.Process", func() { rc.Process(u) }},
		{"distinct.Estimator.Process", func() { est.Process(u) }},
		{"TwoPassL0Sampler.Process pass 1", func() { tp1.Process(u) }},
		{"TwoPassL0Sampler.Process pass 2", func() { tp2.Process(u) }},
	}
	for _, tc := range paths {
		for range fill {
			tc.fn()
		}
		if got := testing.AllocsPerRun(1, func() {
			for range 5 * fill / 2 {
				tc.fn()
			}
		}); got != 0 {
			t.Errorf("%s allocates %v times per %d calls, want 0", tc.name, got, 5*fill/2)
		}
	}
}

// TestDuplicateFinderRetainsNoPrefixScratch: the constructor feeds the
// n-letter pigeonhole prefix, and every sketch under the finder keeps batch
// scratch sized to the largest batch it has been handed. Fed as one batch, the
// prefix left 31 MiB of scratch behind a 237 KB sketch at n = 2^16; fed in
// blocks it leaves about 1 MiB.
func TestDuplicateFinderRetainsNoPrefixScratch(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	d := streamsample.NewDuplicateFinder(1<<16, streamsample.WithSeed(17))
	after := heap()
	runtime.KeepAlive(d)
	const budget = 4 << 20
	if after > before && after-before > budget {
		t.Errorf("NewDuplicateFinder(2^16) retains %.1f MiB after GC, budget %d MiB",
			float64(after-before)/(1<<20), budget>>20)
	}
}

// TestNisanBatchKernelZeroAlloc pins the PRG's window-table batch path: after
// the first call builds the tables, steady-state BlockBatch calls allocate
// nothing — for both the run-structured index pattern of the i.i.d.
// membership layout and arbitrary index orders.
func TestNisanBatchKernelZeroAlloc(t *testing.T) {
	g := prng.New(1<<22, seeded(10))
	run := make([]uint64, 16)
	scattered := make([]uint64, 64)
	dst := make([]uint64, 64)
	for i := range run {
		run[i] = 4096 + uint64(i)
	}
	for i := range scattered {
		scattered[i] = uint64(i) * 2654435761
	}
	g.BlockBatch(dst[:len(run)], run) // builds the window tables
	for _, idx := range [][]uint64{run, scattered} {
		if got := testing.AllocsPerRun(10, func() { g.BlockBatch(dst[:len(idx)], idx) }); got != 0 {
			t.Errorf("BlockBatch(%d indices) allocates %v times per call, want 0", len(idx), got)
		}
	}
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

// TestLpDirtyQueryAllocBudget: a dirty Lp query runs the recovery stage
// again, and what it allocates is a small constant — the output list and the
// norm sketches' median buffers — that does not grow with the dimension: the
// scan's block buffers, ẑ and its sparse-vector form are scratch the sampler
// keeps. (Before PR 13 every repetition allocated n floats, n entries and a
// map: about 5 MB per query at n = 2^14.) The budget holds for SampleAll,
// which resolves every repetition, and for the lazy Sample and
// PositiveFinder.Find, whose accept callbacks allocate no closure.
func TestLpDirtyQueryAllocBudget(t *testing.T) {
	const copies = 5
	queries := map[string]func(n int) (stream.Sink, func()){
		"SampleAll": func(n int) (stream.Sink, func()) {
			lp := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3, Copies: copies}, seeded(25))
			return lp, func() { lp.SampleAll() }
		},
		"Sample": func(n int) (stream.Sink, func()) {
			lp := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3, Copies: copies}, seeded(25))
			return lp, func() { lp.Sample() }
		},
		"PositiveFinder.Find": func(n int) (stream.Sink, func()) {
			f := duplicates.NewPositiveFinder(n, 0.6, seeded(25)) // ⌈8·ln(1/0.6)⌉ = 5 repetitions
			return f, func() { f.Find() }
		},
	}
	for name, build := range queries {
		allocs := func(n int) float64 {
			sk, query := build(n)
			stream.ZipfSigned(n, 1.1, 4000, seeded(26)).FeedBatch(512, sk)
			query() // grow the scratch
			return testing.AllocsPerRun(5, func() {
				sk.Process(stream.Update{Index: 1, Delta: 0}) // resets the cursor, keeps the state
				query()
			})
		}
		small, large := allocs(1<<10), allocs(1<<16)
		if budget := float64(2*copies + 6); small > budget || large > budget {
			t.Errorf("dirty %s allocates %v times at n=2^10 and %v at n=2^16, budget %v", name, small, large, budget)
		}
		if large > small+copies {
			t.Errorf("%s allocations grow with n: %v at n=2^10, %v at n=2^16", name, small, large)
		}
	}
}

// TestShardRoutingBalanced pins the router's mix step: dense small indices —
// the realistic stream domain — must spread across all shards, not collapse
// onto shard 0 (which a raw multiply-shift reduction of the index would do).
func TestShardRoutingBalanced(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		e := New(Config{Shards: shards}, csFactory(9), csMerge)
		const n = 1 << 16
		counts := make([]int, shards)
		for i := 0; i < n; i++ {
			counts[e.shardOf(i)]++
		}
		e.Close()
		mean := float64(n) / float64(shards)
		for s, c := range counts {
			if float64(c) < 0.8*mean || float64(c) > 1.2*mean {
				t.Errorf("shards=%d: shard %d owns %d of %d indices (mean %.0f)", shards, s, c, n, mean)
			}
		}
	}
}
