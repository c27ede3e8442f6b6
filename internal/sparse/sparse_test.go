package sparse

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/stream"
)

func TestRecoverZeroVector(t *testing.T) {
	rc := New(100, 5, rand.New(rand.NewPCG(1, 1)))
	got, ok := rc.Recover()
	if !ok || len(got) != 0 {
		t.Fatalf("zero vector: got %v ok=%v", got, ok)
	}
}

func TestRecoverExactForAllSparsities(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	const n = 500
	const s = 8
	for e := 1; e <= s; e++ {
		for trial := 0; trial < 10; trial++ {
			rc := New(n, s, r)
			st := stream.SparseVector(n, e, 1000, r)
			truth := st.Apply(n)
			st.Feed(rc)
			got, ok := rc.Recover()
			if !ok {
				t.Fatalf("e=%d: recovery reported DENSE for sparse vector", e)
			}
			if len(got) != truth.L0() {
				t.Fatalf("e=%d: recovered %d coords, want %d", e, len(got), truth.L0())
			}
			for i, v := range got {
				if truth.Get(i) != v {
					t.Fatalf("e=%d: x_%d = %d, want %d", e, i, v, truth.Get(i))
				}
			}
		}
	}
}

func TestRecoverNegativeValues(t *testing.T) {
	rc := New(50, 4, rand.New(rand.NewPCG(3, 3)))
	rc.add(7, -123)
	rc.add(49, 1)
	rc.add(0, -999999)
	got, ok := rc.Recover()
	if !ok {
		t.Fatal("DENSE on 3-sparse vector")
	}
	want := map[int]int64{7: -123, 49: 1, 0: -999999}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("x_%d = %d, want %d", i, got[i], v)
		}
	}
}

func TestDenseDetection(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	const n = 400
	const s = 5
	for trial := 0; trial < 20; trial++ {
		rc := New(n, s, r)
		// support 3s..n/2, comfortably beyond the budget
		support := 3*s + r.IntN(n/2-3*s)
		st := stream.SparseVector(n, support, 100, r)
		st.Feed(rc)
		if got, ok := rc.Recover(); ok {
			t.Fatalf("trial %d: dense vector (support %d) decoded as %v", trial, support, got)
		}
	}
}

func TestDenseDetectionJustAboveBudget(t *testing.T) {
	// support = s+1 is the hardest DENSE case.
	r := rand.New(rand.NewPCG(5, 5))
	const n = 200
	const s = 6
	for trial := 0; trial < 20; trial++ {
		rc := New(n, s, r)
		st := stream.SparseVector(n, s+1, 50, r)
		st.Feed(rc)
		if _, ok := rc.Recover(); ok {
			t.Fatalf("trial %d: (s+1)-sparse vector accepted", trial)
		}
	}
}

func TestCancellationToSparse(t *testing.T) {
	// A long stream that cancels down to a 2-sparse vector must recover.
	r := rand.New(rand.NewPCG(6, 6))
	rc := New(300, 3, r)
	for i := 0; i < 300; i++ {
		rc.add(i, 7)
	}
	for i := 0; i < 300; i++ {
		if i != 42 && i != 271 {
			rc.add(i, -7)
		}
	}
	got, ok := rc.Recover()
	if !ok || got[42] != 7 || got[271] != 7 || len(got) != 2 {
		t.Fatalf("got %v ok=%v", got, ok)
	}
}

func TestCancellationToZero(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	rc := New(100, 4, r)
	for i := 0; i < 100; i++ {
		rc.add(i, int64(i+1))
		rc.add(i, -int64(i+1))
	}
	if !rc.IsZero() {
		t.Fatal("IsZero false after full cancellation")
	}
	got, ok := rc.Recover()
	if !ok || len(got) != 0 {
		t.Fatalf("got %v ok=%v", got, ok)
	}
}

func TestMerge(t *testing.T) {
	// Two recoverers with identical randomness merge into the sum sketch.
	r1 := rand.New(rand.NewPCG(8, 8))
	r2 := rand.New(rand.NewPCG(8, 8))
	a := New(100, 4, r1)
	b := New(100, 4, r2)
	a.add(3, 10)
	b.add(3, -10)
	b.add(60, 5)
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-seed merge failed: %v", err)
	}
	got, ok := a.Recover()
	if !ok || len(got) != 1 || got[60] != 5 {
		t.Fatalf("merged recovery got %v ok=%v", got, ok)
	}
}

func TestMergeIncompatibleRejected(t *testing.T) {
	a := New(10, 2, rand.New(rand.NewPCG(9, 9)))
	b := New(10, 2, rand.New(rand.NewPCG(10, 10)))
	if err := a.Merge(b); err == nil {
		t.Error("expected error on differently seeded merge")
	}
}

func TestRecoverProperty(t *testing.T) {
	// Property: for random sparse assignments (any positions, any int32
	// values), recovery is exact.
	r := rand.New(rand.NewPCG(11, 11))
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, seed^0x9E3779B9))
		n := 50 + rr.IntN(200)
		s := 1 + rr.IntN(6)
		e := rr.IntN(s + 1)
		rc := New(n, s, r)
		truth := map[int]int64{}
		for len(truth) < e {
			pos := rr.IntN(n)
			if _, dup := truth[pos]; dup {
				continue
			}
			v := rr.Int64N(1<<32) - 1<<31
			if v == 0 {
				v = 1
			}
			truth[pos] = v
			rc.add(pos, v)
		}
		got, ok := rc.Recover()
		if !ok || len(got) != len(truth) {
			return false
		}
		for i, v := range truth {
			if got[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpaceBitsLinearInS(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 12))
	s4 := New(1000, 4, r)
	s8 := New(1000, 8, r)
	if codec.PayloadBits(s8) <= codec.PayloadBits(s4) {
		t.Error("space must grow with s")
	}
	if got := codec.PayloadBits(s4); got != int64(2*4+1)*64 {
		t.Errorf("payload = %d bits, want %d: 2s syndromes and the fingerprint", got, (2*4+1)*64)
	}
}

func TestSparsityClamp(t *testing.T) {
	rc := New(10, 0, rand.New(rand.NewPCG(13, 13)))
	if rc.S() != 1 {
		t.Fatalf("S() = %d, want clamp to 1", rc.S())
	}
	rc.add(5, 3)
	got, ok := rc.Recover()
	if !ok || got[5] != 3 {
		t.Fatalf("1-sparse recovery got %v ok=%v", got, ok)
	}
}

// BenchmarkProcessBatchS10 measures the transposed syndrome kernel at the L0
// sampler's default budget (s=10, 20 syndromes); BenchmarkProcessScalarS10 is
// the same work through one-at-a-time Process calls, batches of one that take
// the two-chain fold.
func BenchmarkProcessBatchS10(b *testing.B) {
	rc := New(1<<16, 10, rand.New(rand.NewPCG(1, 1)))
	batch := make([]stream.Update, 4096)
	r := rand.New(rand.NewPCG(2, 2))
	for i := range batch {
		batch[i] = stream.Update{Index: r.IntN(1 << 16), Delta: int64(r.IntN(199) - 99)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.ProcessBatch(batch)
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "updates/s")
}

func BenchmarkProcessScalarS10(b *testing.B) {
	rc := New(1<<16, 10, rand.New(rand.NewPCG(1, 1)))
	batch := make([]stream.Update, 4096)
	r := rand.New(rand.NewPCG(2, 2))
	for i := range batch {
		batch[i] = stream.Update{Index: r.IntN(1 << 16), Delta: int64(r.IntN(199) - 99)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range batch {
			rc.Process(u)
		}
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkRecoverS8N4096 measures repeated Recover() calls on an unchanged
// sketch — the full decode before PR 4, the memoized cached result after it.
func BenchmarkRecoverS8N4096(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	rc := New(4096, 8, r)
	for i := 0; i < 8; i++ {
		rc.add(r.IntN(4096), int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Recover()
	}
}

// BenchmarkRecoverDirty measures one full decode per iteration of an
// 8-sparse vector at n = 2^12, 2^16 and 2^24 — Berlekamp-Massey, the root
// finder, the Vandermonde value solve and the 2s+1-point verification. A
// canceling update pair re-dirties the sketch each round without changing
// its state, so the memoized decoder cannot short-circuit. No step depends on
// n; a scan of [n] would, and the three sizes show it.
func BenchmarkRecoverDirty(b *testing.B) {
	for _, lg := range []int{12, 16, 24} {
		n := 1 << lg
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			r := rand.New(rand.NewPCG(1, 1))
			rc := New(n, 8, r)
			for i := 0; i < 8; i++ {
				rc.add(r.IntN(n), int64(i+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.add(0, 1)
				rc.add(0, -1)
				if _, ok := rc.Recover(); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}
