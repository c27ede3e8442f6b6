package hash

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
)

func TestEvalDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	h := NewFlatFamily(1, 4, r)
	a, b := h.Eval(0, 42), h.Eval(0, 42)
	if a != b {
		t.Fatal("hash must be deterministic per seed")
	}
}

func TestEvalMatchesPolynomial(t *testing.T) {
	h := &FlatFamily{rows: 1, k: 3, coef: []field.Elem{7, 3, 2}} // 7 + 3x + 2x^2
	if got := h.Eval(0, 5); got != field.New(7+15+50) {
		t.Fatalf("Eval(5) = %d, want %d", got, 72)
	}
}

func TestBucketRange(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	h := NewFlatFamily(1, 2, r)
	const m = 13
	for x := uint64(0); x < 10000; x++ {
		if b := h.Bucket(0, x, m); b >= m {
			t.Fatalf("bucket %d out of range", b)
		}
	}
}

func TestBucketUniformity(t *testing.T) {
	// chi-square-ish check: no bucket should deviate far from mean.
	r := rand.New(rand.NewPCG(3, 3))
	h := NewFlatFamily(1, 2, r)
	const m, nkeys = 16, 1 << 16
	counts := make([]int, m)
	for x := uint64(0); x < nkeys; x++ {
		counts[h.Bucket(0, x, m)]++
	}
	mean := float64(nkeys) / m
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 6*math.Sqrt(mean) {
			t.Errorf("bucket %d count %d too far from mean %.0f", b, c, mean)
		}
	}
}

func TestSignBalance(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	h := NewFlatFamily(1, 4, r)
	var sum int64
	const nkeys = 1 << 16
	for x := uint64(0); x < nkeys; x++ {
		s := h.Sign(0, x)
		if s != 1 && s != -1 {
			t.Fatalf("sign %d not in {-1,1}", s)
		}
		sum += s
	}
	if math.Abs(float64(sum)) > 6*math.Sqrt(nkeys) {
		t.Errorf("sign sum %d too biased for %d keys", sum, nkeys)
	}
}

func TestPairwiseSignDecorrelation(t *testing.T) {
	// E[g(x)g(y)] should be ~0 for x != y under pairwise independence,
	// averaged over draws of the hash function.
	r := rand.New(rand.NewPCG(5, 5))
	const draws = 4000
	var corr int64
	for d := 0; d < draws; d++ {
		h := NewFlatFamily(1, 2, r)
		corr += h.Sign(0, 1) * h.Sign(0, 2)
	}
	if math.Abs(float64(corr)) > 6*math.Sqrt(draws) {
		t.Errorf("pairwise sign correlation %d too large over %d draws", corr, draws)
	}
}

func TestFloat64RangeAndMean(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	h := NewFlatFamily(1, 4, r)
	var sum float64
	const nkeys = 1 << 16
	for x := uint64(0); x < nkeys; x++ {
		f := h.Float64(0, x)
		if f <= 0 || f > 1 {
			t.Fatalf("Float64 %g out of (0,1]", f)
		}
		sum += f
	}
	mean := sum / nkeys
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestMomentIndependence(t *testing.T) {
	// For a 4-wise family, E over draws of prod_{j in S} f(x_j) for distinct
	// keys with f = Float64 - 1/2 should be ~0 for |S| <= 4.
	r := rand.New(rand.NewPCG(7, 7))
	const draws = 3000
	sums := make([]float64, 5)
	for d := 0; d < draws; d++ {
		h := NewFlatFamily(1, 4, r)
		prod := 1.0
		for j := 1; j <= 4; j++ {
			prod *= h.Float64(0, uint64(j)) - 0.5
			sums[j] += prod
		}
	}
	for j := 1; j <= 4; j++ {
		// centered uniform has var 1/12; product of j of them has std
		// (1/12)^{j/2} <= 0.3^j
		tol := 6 * math.Pow(0.3, float64(j)) / math.Sqrt(draws)
		if got := sums[j] / draws; math.Abs(got) > tol {
			t.Errorf("order-%d moment %.6f exceeds tolerance %.6f", j, got, tol)
		}
	}
}

func TestNewFlatFamilyPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	NewFlatFamily(1, 0, rand.New(rand.NewPCG(1, 1)))
}

func BenchmarkEvalK2(b *testing.B) {
	h := NewFlatFamily(1, 2, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < b.N; i++ {
		h.Eval(0, uint64(i))
	}
}

func BenchmarkEvalK20(b *testing.B) {
	h := NewFlatFamily(1, 20, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < b.N; i++ {
		h.Eval(0, uint64(i))
	}
}
