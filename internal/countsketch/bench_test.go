package countsketch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

func benchSketchAndBatch() (*Sketch, stream.Stream) {
	s := New(64, 12, rand.New(rand.NewPCG(3, 5)))
	return s, stream.RandomTurnstile(1<<16, 8192, 100, rand.New(rand.NewPCG(17, 29)))
}

// BenchmarkProcessBatch is the engine-worker hot path: the fused
// bucket+sign kernel over every row of the PR-1 acceptance sketch shape
// (m=64, 12 rows). ReportAllocs documents the zero-allocation contract.
func BenchmarkProcessBatch(b *testing.B) {
	s, st := benchSketchAndBatch()
	s.ProcessBatch(st) // warm the scratch so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProcessBatch(st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st)), "ns/update")
}

// BenchmarkAddBatch is the Lp sampler's real-valued path (pre-scaled batch).
func BenchmarkAddBatch(b *testing.B) {
	s, st := benchSketchAndBatch()
	idx := make([]uint64, len(st))
	del := make([]float64, len(st))
	for t, u := range st {
		idx[t] = uint64(u.Index)
		del[t] = float64(u.Delta)
	}
	s.AddBatch(idx, del)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(idx, del)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idx)), "ns/update")
}

// BenchmarkProcessSerial is the scalar Process path over the same updates,
// for the serial-vs-batched comparison in the README.
func BenchmarkProcessSerial(b *testing.B) {
	s, st := benchSketchAndBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range st {
			s.Process(u)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st)), "ns/update")
}

// BenchmarkAddBatchWide is the wide-row regime of the counter scatter:
// m = 2^14 gives 98304 buckets per row (~768 KiB of float64), past L2 on
// the benchmark hardware, so the fold waits on random cell-line fetches.
func BenchmarkAddBatchWide(b *testing.B) {
	s := New(1<<14, 4, rand.New(rand.NewPCG(3, 5)))
	r := rand.New(rand.NewPCG(17, 29))
	idx := make([]uint64, 8192)
	del := make([]float64, 8192)
	for t := range idx {
		idx[t] = r.Uint64N(1 << 20)
		del[t] = float64(1 + t%7)
	}
	s.AddBatch(idx, del)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(idx, del)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idx)), "ns/update")
}

// TestProcessBatchZeroAlloc pins the acceptance criterion: once the scratch
// is warm, ProcessBatch, AddBatch, and the Estimate query path allocate zero
// bytes per call.
func TestProcessBatchZeroAlloc(t *testing.T) {
	s, st := benchSketchAndBatch()
	s.ProcessBatch(st)
	if n := testing.AllocsPerRun(10, func() { s.ProcessBatch(st) }); n != 0 {
		t.Errorf("ProcessBatch allocates %v times per call, want 0", n)
	}
	idx := make([]uint64, len(st))
	del := make([]float64, len(st))
	for i, u := range st {
		idx[i] = uint64(u.Index)
		del[i] = float64(u.Delta)
	}
	s.AddBatch(idx, del)
	if n := testing.AllocsPerRun(10, func() { s.AddBatch(idx, del) }); n != 0 {
		t.Errorf("AddBatch allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Estimate(42) }); n != 0 {
		t.Errorf("Estimate allocates %v times per call, want 0", n)
	}
}

// benchDecodeSketch is one repetition of the lp_stream sampler: m = 32,
// 18 rows, n = 2^14, fed a signed heavy-tailed vector.
func benchDecodeSketch() (*Sketch, int) {
	const n = 1 << 14
	r := rand.New(rand.NewPCG(3, 5))
	s := New(32, 18, r)
	for i := 0; i < n; i++ {
		s.Add(uint64(i), float64(1+r.IntN(100))/r.Float64())
	}
	return s, n
}

// BenchmarkDecode is the full blocked decode, every median taken.
func BenchmarkDecode(b *testing.B) {
	s, n := benchDecodeSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decode(n)
	}
}

// BenchmarkTop is the recovery stage's scan: the blocked decode with the
// threshold-pruned top-m, what each repetition of an Lp query pays.
func BenchmarkTop(b *testing.B) {
	s, n := benchDecodeSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Top(n, 32)
	}
}
