// Root benchmark harness: one testing.B benchmark per evaluation table
// (E1-E11, A1-A3), plus the serial-vs-sharded ingestion benchmarks of the
// engine. Each experiment benchmark executes the same code path as
// `cmd/experiments -run <ID>` in quick mode, so `go test -bench=.` at the
// repository root regenerates every experiment under the benchmark clock.
//
// Per-operation micro-benchmarks (update throughput, recovery latency) live
// next to their packages under internal/.
package streamsample_test

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	streamsample "repro"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/duplicates"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stream"
)

func benchExperiment(b *testing.B, id string) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		tbl, ok := experiments.Run(id, cfg)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
		if i == 0 && testing.Verbose() {
			tbl.Render(io.Discard)
		}
	}
}

// ---------------------------------------------------------------------------
// Ingestion throughput: serial single-sink vs sharded engine.
// ---------------------------------------------------------------------------

// The headline workload of the engine acceptance test: a 10M-update general
// turnstile stream. Generated once and shared across the ingestion
// benchmarks so the comparison isolates the sinks.
const (
	ingestLen = 10_000_000
	ingestN   = 1 << 16
)

var (
	ingestOnce   sync.Once
	ingestStream stream.Stream
)

func ingestWorkload() stream.Stream {
	ingestOnce.Do(func() {
		ingestStream = stream.RandomTurnstile(ingestN, ingestLen, 100, rand.New(rand.NewPCG(17, 29)))
	})
	return ingestStream
}

func newIngestSketch() *countsketch.Sketch {
	return countsketch.New(64, 12, rand.New(rand.NewPCG(3, 5)))
}

func reportThroughput(b *testing.B, updates int) {
	b.ReportMetric(float64(updates)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkIngestSerial is the baseline: one count-sketch consuming the
// stream one Process call at a time.
func BenchmarkIngestSerial(b *testing.B) {
	st := ingestWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Feed(newIngestSketch())
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestSerialBatched isolates the ProcessBatch hot-path gain
// without sharding.
func BenchmarkIngestSerialBatched(b *testing.B) {
	st := ingestWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FeedBatch(1024, newIngestSketch())
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestSerialBatchedWide drives the same stream through a wide
// count-sketch (m = 2^14: 98304 buckets per row, DRAM-resident), where the
// counter scatter waits on random cell-line fetches. Not part of the
// bench-gate baseline set (the gate regexp is $-anchored).
func BenchmarkIngestSerialBatchedWide(b *testing.B) {
	st := ingestWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FeedBatch(1024, countsketch.New(1<<14, 4, rand.New(rand.NewPCG(3, 5))))
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestEngine is the full shard → batch → merge pipeline at
// GOMAXPROCS shards; on a multi-core runner it should beat BenchmarkIngestSerial
// by ≥ 2x.
func BenchmarkIngestEngine(b *testing.B) {
	st := ingestWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{},
			func(int) *countsketch.Sketch { return newIngestSketch() },
			func(dst, src *countsketch.Sketch) error { return dst.Merge(src) })
		eng.Feed(st)
		if _, err := eng.Results(); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestL0Serial / BenchmarkIngestL0Engine run the same comparison
// on the much heavier L0 sampler update path (1M updates).
func BenchmarkIngestL0Serial(b *testing.B) {
	st := ingestWorkload()[:1_000_000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := core.NewL0Sampler(core.L0Config{N: ingestN, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
		st.Feed(sk)
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestL0SerialNested is the serial L0 ingest with the dyadic
// nested level assignment (L0Config.NestedLevels): one PRG tree walk per
// update decides every level's membership at once.
func BenchmarkIngestL0SerialNested(b *testing.B) {
	st := ingestWorkload()[:1_000_000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := core.NewL0Sampler(core.L0Config{N: ingestN, Delta: 0.2, NestedLevels: true}, rand.New(rand.NewPCG(7, 11)))
		st.Feed(sk)
	}
	reportThroughput(b, len(st))
}

func BenchmarkIngestL0Engine(b *testing.B) {
	st := ingestWorkload()[:1_000_000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{},
			func(int) *core.L0Sampler {
				return core.NewL0Sampler(core.L0Config{N: ingestN, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
			},
			func(dst, src *core.L0Sampler) error { return dst.Merge(src) })
		eng.Feed(st)
		if _, err := eng.Results(); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestEngineSkew runs the default engine on a hot-partition
// variant of the ingest workload where half of all updates hit eight keys —
// the only skewed engine stream in the repository, and the yardstick any
// rebalancing mechanism has to beat before it is added. Not part of the
// bench-gate baseline set (the gate regexp is $-anchored).
var (
	skewOnce   sync.Once
	skewStream stream.Stream
)

func BenchmarkIngestEngineSkew(b *testing.B) {
	skewOnce.Do(func() {
		r := rand.New(rand.NewPCG(23, 41))
		skewStream = make(stream.Stream, ingestLen)
		for i := range skewStream {
			idx := r.IntN(ingestN)
			if i%2 == 0 {
				idx = r.IntN(8) // hot set: 8 keys carry half the traffic
			}
			skewStream[i] = stream.Update{Index: idx, Delta: int64(1 + i%7)}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{},
			func(int) *countsketch.Sketch { return newIngestSketch() },
			func(dst, src *countsketch.Sketch) error { return dst.Merge(src) })
		eng.Feed(skewStream)
		if _, err := eng.Results(); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, len(skewStream))
}

// BenchmarkIngestLpSerialBatched is Theorem 1's update path at the lp_stream
// shape of bench/ (p = 1, n = 2^14, ε = 0.25, δ = 0.2, signed Zipf updates in
// 2048-update batches): per batch, the shared Cauchy sketch and each of the 13
// repetitions' scaling row, count-sketch and AMS sketch, all through the SIMD
// k-wise kernels. One op is eight batches.
func BenchmarkIngestLpSerialBatched(b *testing.B) {
	const n = 1 << 14
	sk := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
	st := stream.ZipfSigned(n, 1.1, 8*2048, rand.New(rand.NewPCG(17, 29)))
	st.FeedBatch(2048, sk) // grow the batch scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FeedBatch(2048, sk)
	}
	reportThroughput(b, len(st))
}

// BenchmarkIngestDuplicateFinderObserve is Theorem 3's update path at
// dup_stream's size (n = 2^16), one Observe per op: the letter waits in the
// sampler's buffer, and every 256th Observe folds the buffer through the
// batch path of the same sketches.
func BenchmarkIngestDuplicateFinderObserve(b *testing.B) {
	const n = 1 << 16
	d := streamsample.NewDuplicateFinder(n, streamsample.WithSeed(31))
	letters := stream.DuplicateItems(n, 5, rand.New(rand.NewPCG(31, 32)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(letters[i%len(letters)])
	}
	reportThroughput(b, 1)
}

// ---------------------------------------------------------------------------
// Query-side throughput: repeated decodes on ingested sketches.
// ---------------------------------------------------------------------------

// BenchmarkQueryL0Sample measures repeated Sample() calls on an L0 sampler
// holding the 1M-update ingest prefix: after the first, every call reads the
// memoized decode of the unchanged sketch. BenchmarkQueryL0SampleDirty
// measures the decode itself.
func BenchmarkQueryL0Sample(b *testing.B) {
	st := ingestWorkload()[:1_000_000]
	sk := core.NewL0Sampler(core.L0Config{N: ingestN, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
	st.FeedBatch(2048, sk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Sample()
	}
}

// BenchmarkQueryL0SampleDirty is a dirty Theorem 2 query on an 8-sparse
// vector at n = 2^16 and 2^24: a zero-delta update re-dirties level 0 each
// iteration without moving the state, so every Sample re-decodes it —
// Berlekamp-Massey, the locator's roots, the value solve and verification —
// and answers from it. No step of that decode depends on n.
func BenchmarkQueryL0SampleDirty(b *testing.B) {
	for _, lg := range []int{16, 24} {
		n := 1 << lg
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			sk := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
			r := rand.New(rand.NewPCG(17, 29))
			for support := map[int]bool{}; len(support) < 8; {
				if i := r.IntN(n); !support[i] {
					support[i] = true
					sk.Process(stream.Update{Index: i, Delta: int64(r.IntN(1000)) + 1})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Process(stream.Update{Index: i % n, Delta: 0})
				if _, ok := sk.Sample(); !ok {
					b.Fatal("an 8-sparse vector failed to sample")
				}
			}
		})
	}
}

// BenchmarkQueryDuplicatesFind measures repeated duplicate queries against
// an ingested Theorem 4 short stream (the exact sparse-recovery path).
func BenchmarkQueryDuplicatesFind(b *testing.B) {
	r := rand.New(rand.NewPCG(31, 32))
	const n, s = 1 << 12, 8
	sf := duplicates.NewShortFinder(n, s, 0.2, r)
	letters := make([]int, 0, n-s)
	for i := 0; i < n-2*s; i++ {
		letters = append(letters, i)
	}
	for i := 0; i < s; i++ {
		letters = append(letters, i)
	}
	sf.ProcessItems(letters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sf.Find(); res.Kind != duplicates.Duplicate {
			b.Fatalf("query failed: %+v", res)
		}
	}
}

// lpQueryN and lpQuerySketch are the lp_stream shape of bench/ (p = 1,
// n = 2^14, ε = 0.25, δ = 0.2, 13 repetitions) fed signed Zipf updates.
const lpQueryN = 1 << 14

func lpQuerySketch() *core.LpSampler {
	sk := core.NewLpSampler(core.LpConfig{P: 1, N: lpQueryN, Eps: 0.25, Delta: 0.2}, rand.New(rand.NewPCG(7, 11)))
	stream.ZipfSigned(lpQueryN, 1.1, 60_000, rand.New(rand.NewPCG(17, 29))).FeedBatch(2048, sk)
	return sk
}

// BenchmarkQueryLpSample is a dirty Theorem 1 query at the lp_stream shape: a
// zero-delta update resets the recovery cursor without moving the state, so
// every iteration runs the recovery stage (the blocked count-sketch scan and
// the s-test) on the repetitions up to the first that emits — not all 13.
func BenchmarkQueryLpSample(b *testing.B) {
	sk := lpQuerySketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Process(stream.Update{Index: i % lpQueryN, Delta: 0})
		sk.Sample()
	}
}

// BenchmarkQueryLpSampleAll is BenchmarkQueryLpSample with SampleAll: every
// iteration resolves all 13 repetitions, the cost of a FAIL answer and the
// one query path that still pays every repetition.
func BenchmarkQueryLpSampleAll(b *testing.B) {
	sk := lpQuerySketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Process(stream.Update{Index: i % lpQueryN, Delta: 0})
		sk.SampleAll()
	}
}

// BenchmarkQueryDuplicateFinderFind is the Theorem 3 query at dup_stream's
// size: n = 2^16, a permutation of the letters plus one repeat, and a dirty
// Find() per iteration, which resolves repetitions (the same recovery stage
// over four times the keys) until one yields a positive estimate.
func BenchmarkQueryDuplicateFinderFind(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewPCG(31, 32))
	f := duplicates.NewFinder(n, 0.2, r)
	f.ProcessItems(stream.DuplicateItems(n, r.IntN(n), r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(stream.Update{Index: i % n, Delta: 0})
		f.Find()
	}
}

func BenchmarkE1LpSamplerTV(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2SpaceScaling(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3L0Sampler(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4Duplicates(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5DuplicatesShort(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6DuplicatesLong(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7LowerBoundPipeline(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8HeavyHitters(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9CountSketchTail(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10NormEstimation(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11URProtocol(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12Extensions(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkA1ScalingIndependence(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2STest(b *testing.B)               { benchExperiment(b, "A2") }
func BenchmarkA3SketchWidth(b *testing.B)         { benchExperiment(b, "A3") }
