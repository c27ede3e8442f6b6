package countsketch

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
	"repro/internal/vector"
)

func TestExactOnVerySparse(t *testing.T) {
	// With a single nonzero coordinate there is no collision noise in any
	// row, so the estimate must be exact.
	r := rand.New(rand.NewPCG(1, 1))
	s := New(4, 5, r)
	s.Add(17, 42.5)
	if got := s.Estimate(17); got != 42.5 {
		t.Fatalf("Estimate = %g, want 42.5", got)
	}
}

func TestLinearity(t *testing.T) {
	// Sketch(x) + Sketch(y) cell-wise equals Sketch(x+y) when built with the
	// same hashes; equivalently, interleaved updates of +d and -d cancel.
	r := rand.New(rand.NewPCG(2, 2))
	s := New(8, 7, r)
	for i := uint64(0); i < 100; i++ {
		s.Add(i, float64(i))
	}
	for i := uint64(0); i < 100; i++ {
		s.Add(i, -float64(i))
	}
	for j := range s.cells {
		for k, c := range s.cells[j] {
			if c != 0 {
				t.Fatalf("cell (%d,%d) = %g after cancellation", j, k, c)
			}
		}
	}
}

func TestLemma1PointwiseError(t *testing.T) {
	// |x_i - x*_i| <= Err^m_2(x)/sqrt(m) for all i, w.h.p.
	r := rand.New(rand.NewPCG(3, 3))
	const n = 2048
	const m = 16
	st := stream.ZipfSigned(n, 0.9, 1_000_000, r)
	truth := st.Apply(n)
	bound := truth.ErrM2(m) / math.Sqrt(m)

	failures := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		s := New(m, 15, r)
		st.Feed(s)
		worst := 0.0
		for i := 0; i < n; i++ {
			diff := math.Abs(float64(truth.Get(i)) - s.Estimate(uint64(i)))
			if diff > worst {
				worst = diff
			}
		}
		if worst > bound {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("Lemma 1 bound violated in %d/%d trials (bound %.1f)", failures, trials, bound)
	}
}

func TestLemma1TailApproximation(t *testing.T) {
	// Err^m_2(x) <= ||x - xhat||_2 <= 10*Err^m_2(x) for the best m-sparse
	// approximation xhat of the sketch output.
	r := rand.New(rand.NewPCG(4, 4))
	const n = 1024
	const m = 8
	st := stream.ZipfSigned(n, 1.1, 100_000, r)
	truth := st.Apply(n)
	errM2 := truth.ErrM2(m)
	s := New(m, 15, r)
	st.Feed(s)
	top := s.Top(n, m)
	xhat := make([]float64, n)
	for _, e := range top {
		xhat[e.Index] = e.Estimate
	}
	var dist float64
	for i := 0; i < n; i++ {
		d := float64(truth.Get(i)) - xhat[i]
		dist += d * d
	}
	dist = math.Sqrt(dist)
	if dist < errM2-1e-9 {
		t.Errorf("||x - xhat|| = %.2f below Err^m_2 = %.2f (impossible)", dist, errM2)
	}
	if dist > 10*errM2 {
		t.Errorf("||x - xhat|| = %.2f exceeds 10*Err^m_2 = %.2f", dist, 10*errM2)
	}
}

func TestHeavyCoordinateAlwaysFound(t *testing.T) {
	// A coordinate holding most of the L2 mass must surface as Top(n,1).
	r := rand.New(rand.NewPCG(5, 5))
	const n = 512
	for trial := 0; trial < 10; trial++ {
		s := New(8, 13, r)
		heavy := r.IntN(n)
		for i := 0; i < n; i++ {
			s.Add(uint64(i), float64(r.IntN(21)-10))
		}
		s.Add(uint64(heavy), 1e6)
		top := s.Top(n, 1)
		if len(top) != 1 || top[0].Index != heavy {
			t.Fatalf("trial %d: heavy coordinate %d not found: %+v", trial, heavy, top)
		}
	}
}

func TestTopOrderingAndTruncation(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	s := New(16, 9, r)
	s.Add(1, 100)
	s.Add(2, -200)
	s.Add(3, 50)
	top := s.Top(10, 2)
	if len(top) != 2 {
		t.Fatalf("Top returned %d entries, want 2", len(top))
	}
	if top[0].Index != 2 || top[1].Index != 1 {
		t.Fatalf("Top order wrong: %+v", top)
	}
	all := s.Top(10, 100)
	if len(all) != 3 {
		t.Fatalf("Top(100) returned %d entries, want 3", len(all))
	}
}

func TestProcessMatchesAdd(t *testing.T) {
	r1 := rand.New(rand.NewPCG(7, 7))
	r2 := rand.New(rand.NewPCG(7, 7))
	a := New(4, 5, r1)
	b := New(4, 5, r2)
	a.Process(stream.Update{Index: 9, Delta: -3})
	b.Add(9, -3)
	if a.Estimate(9) != b.Estimate(9) {
		t.Fatal("Process and Add disagree")
	}
}

func TestEstimateUnbiasedOverDraws(t *testing.T) {
	// Averaged over independent sketch draws, a single-row estimate of x_i is
	// unbiased; the median keeps the estimate centred. Check the empirical
	// mean stays near truth.
	r := rand.New(rand.NewPCG(8, 8))
	const n = 256
	x := make([]int64, n)
	for i := range x {
		x[i] = int64(r.IntN(41) - 20)
	}
	x[7] = 500
	var sum float64
	const draws = 60
	for d := 0; d < draws; d++ {
		s := New(4, 7, r)
		for i, v := range x {
			s.Add(uint64(i), float64(v))
		}
		sum += s.Estimate(7)
	}
	mean := sum / draws
	truth := vector.FromSlice(x)
	tail := truth.ErrM2(4) / 2 // sqrt(m)=2
	if math.Abs(mean-500) > tail {
		t.Errorf("mean estimate %.1f drifted from 500 by more than %.1f", mean, tail)
	}
}

func TestSpaceBitsScalesWithM(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	small := New(4, 10, r)
	big := New(8, 10, r)
	if codec.PayloadBits(big) <= codec.PayloadBits(small) {
		t.Error("space must grow with m")
	}
	if codec.PayloadBits(small) < int64(10*6*4*64) {
		t.Error("space accounting forgot the cells")
	}
}

func TestMedianHelper(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestDegenerateParamsClamped(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 10))
	s := New(0, 0, r)
	s.Add(1, 5)
	if s.M() != 1 || s.Rows() != 1 {
		t.Fatalf("params not clamped: m=%d rows=%d", s.M(), s.Rows())
	}
	if got := s.Estimate(1); got != 5 {
		t.Fatalf("degenerate sketch estimate = %g", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(64, 15, rand.New(rand.NewPCG(1, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i), 1)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(64, 15, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < 10000; i++ {
		s.Add(uint64(i), float64(i))
	}
	b.ReportAllocs() // documents the stack-resident median buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(uint64(i % 10000))
	}
}

func TestMergeSameSeed(t *testing.T) {
	// Same-seed sketches of x and y merge into the sketch of x+y: feeding
	// the halves separately and merging equals feeding everything serially.
	mk := func() *Sketch { return New(8, 7, rand.New(rand.NewPCG(21, 22))) }
	st := stream.RandomTurnstile(200, 2000, 50, rand.New(rand.NewPCG(23, 24)))
	whole, a, b := mk(), mk(), mk()
	st.Feed(whole)
	st[:1000].Feed(a)
	st[1000:].Feed(b)
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-seed merge failed: %v", err)
	}
	for i := 0; i < 200; i++ {
		if got, want := a.Estimate(uint64(i)), whole.Estimate(uint64(i)); got != want {
			t.Fatalf("coordinate %d: merged %v != serial %v", i, got, want)
		}
	}
}

func TestMergeRejectsDifferentSeeds(t *testing.T) {
	a := New(8, 7, rand.New(rand.NewPCG(25, 26)))
	b := New(8, 7, rand.New(rand.NewPCG(27, 28)))
	if err := a.Merge(b); err == nil {
		t.Fatal("expected error merging differently seeded sketches")
	}
	if err := a.Merge(New(4, 7, rand.New(rand.NewPCG(25, 26)))); err == nil {
		t.Fatal("expected error merging sketches of different shapes")
	}
}

func TestProcessBatchEqualsProcess(t *testing.T) {
	mk := func() *Sketch { return New(8, 7, rand.New(rand.NewPCG(31, 32))) }
	st := stream.RandomTurnstile(100, 1500, 40, rand.New(rand.NewPCG(33, 34)))
	serial, batched := mk(), mk()
	st.Feed(serial)
	st.FeedBatch(64, batched)
	for i := 0; i < 100; i++ {
		if serial.Estimate(uint64(i)) != batched.Estimate(uint64(i)) {
			t.Fatalf("coordinate %d: batched state diverged", i)
		}
	}
}

// TestAddBatchWideBitIdentical pins the scatter-fold contract at sketch
// level: on a wide (m = 2^14, DRAM-sized rows) sketch, batched ingestion with
// real-valued mixed-magnitude deltas must leave every cell bit-identical to
// the serial Add path — per-cell accumulation order is batch order.
func TestAddBatchWideBitIdentical(t *testing.T) {
	mk := func() *Sketch { return New(1<<14, 3, rand.New(rand.NewPCG(41, 42))) }
	r := rand.New(rand.NewPCG(43, 44))
	const n = 6000
	idx := make([]uint64, n)
	del := make([]float64, n)
	for i := range idx {
		idx[i] = r.Uint64N(1 << 20)
		del[i] = r.NormFloat64() * math.Ldexp(1, r.IntN(60)-30)
	}
	serial, batched := mk(), mk()
	for i := range idx {
		serial.Add(idx[i], del[i])
	}
	batched.AddBatch(idx[:n/2], del[:n/2]) // two chunks: exercise scratch reuse
	batched.AddBatch(idx[n/2:], del[n/2:])
	for j := range serial.cells {
		for k := range serial.cells[j] {
			sv, bv := serial.cells[j][k], batched.cells[j][k]
			if math.Float64bits(sv) != math.Float64bits(bv) {
				t.Fatalf("row %d cell %d: batched %x, serial %x", j, k,
					math.Float64bits(bv), math.Float64bits(sv))
			}
		}
	}
}
