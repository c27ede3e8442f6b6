package norm

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
)

func TestAMSEstimateAccuracy(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 500
	st := stream.RandomTurnstile(n, 3000, 20, r)
	truth := st.Apply(n)
	l2 := truth.NormP(2)
	ok := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		a := NewAMS(9, 6, r)
		st.FeedBatch(2048, a)
		est := a.Estimate(nil)
		if est >= 0.75*l2 && est <= 1.33*l2 {
			ok++
		}
	}
	if ok < trials-3 {
		t.Errorf("AMS within ±25%% only %d/%d times (truth %.1f)", ok, trials, l2)
	}
}

func TestAMSUpperEstimateLemma2(t *testing.T) {
	// Lemma 2 interface: ||x||_2 <= r <= 2||x||_2 w.h.p.
	r := rand.New(rand.NewPCG(2, 2))
	const n = 300
	st := stream.ZipfSigned(n, 1.0, 10000, r)
	truth := st.Apply(n)
	l2 := truth.NormP(2)
	ok := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		a := NewAMS(11, 6, r)
		st.FeedBatch(2048, a)
		rEst := a.UpperEstimate(nil)
		if rEst >= l2 && rEst <= 2*l2 {
			ok++
		}
	}
	if ok < trials-4 {
		t.Errorf("Lemma 2 band hit only %d/%d times", ok, trials)
	}
}

func TestAMSSubtraction(t *testing.T) {
	// Estimating ||x - v||_2 by sketch linearity: plant a huge coordinate,
	// subtract it, the residual estimate must drop accordingly.
	r := rand.New(rand.NewPCG(3, 3))
	a := NewAMS(9, 6, r)
	var idx []uint64
	var del []float64
	for i := uint64(0); i < 100; i++ {
		idx, del = append(idx, i), append(del, 1)
	}
	a.AddFloatBatch(append(idx, 7), append(del, 999))
	withHeavy := a.Estimate(nil)
	residual := a.Estimate([]Entry{{Index: 7, Value: 1000}})
	if withHeavy < 500 {
		t.Fatalf("estimate with heavy coordinate too small: %g", withHeavy)
	}
	if residual > 30 {
		t.Fatalf("residual after subtraction too large: %g (want ~10)", residual)
	}
}

func TestAMSZeroVector(t *testing.T) {
	a := NewAMS(5, 4, rand.New(rand.NewPCG(4, 4)))
	if got := a.Estimate(nil); got != 0 {
		t.Fatalf("zero vector estimate = %g", got)
	}
}

func TestStableEstimateAcrossP(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	const n = 400
	st := stream.ZipfSigned(n, 0.8, 1000, r)
	truth := st.Apply(n)
	// Smaller p needs more counters: the sample median of a very
	// heavy-tailed stable law disperses more (the paper's "large enough
	// constant factor" in l = O(log n) is p-dependent).
	counters := map[float64]int{0.5: 200, 1: 100, 1.5: 100, 2: 60}
	for _, p := range []float64{0.5, 1, 1.5, 2} {
		lp := truth.NormP(p)
		ok := 0
		const trials = 15
		for trial := 0; trial < trials; trial++ {
			s := NewStable(p, counters[p], r)
			st.FeedBatch(2048, s)
			est := s.Estimate(nil)
			if est >= 0.7*lp && est <= 1.4*lp {
				ok++
			}
		}
		if ok < trials-3 {
			t.Errorf("p=%.1f: estimate within ±~35%% only %d/%d times (truth %.1f)", p, ok, trials, lp)
		}
	}
}

func TestStableUpperEstimateLemma2(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	const n = 300
	st := stream.RandomTurnstile(n, 1500, 10, r)
	truth := st.Apply(n)
	counters := map[float64]int{0.5: 200, 1: 100, 1.5: 100}
	for _, p := range []float64{0.5, 1, 1.5} {
		lp := truth.NormP(p)
		ok := 0
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			s := NewStable(p, counters[p], r)
			st.FeedBatch(2048, s)
			rEst := s.UpperEstimate(nil)
			if rEst >= lp && rEst <= 2*lp {
				ok++
			}
		}
		if ok < trials-4 {
			t.Errorf("p=%.1f: Lemma 2 band hit only %d/%d times", p, ok, trials)
		}
	}
}

func TestStableSingleCoordinate(t *testing.T) {
	// For a single nonzero coordinate ||x||_p = |x| for every p; the
	// estimator must land near it.
	r := rand.New(rand.NewPCG(7, 7))
	for _, p := range []float64{0.5, 1, 2} {
		s := NewStable(p, 60, r)
		s.Process(stream.Update{Index: 42, Delta: 1000})
		est := s.Estimate(nil)
		if est < 600 || est > 1600 {
			t.Errorf("p=%.1f: single-coordinate estimate %g far from 1000", p, est)
		}
	}
}

func TestStablePanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p=0")
		}
	}()
	NewStable(0, 10, rand.New(rand.NewPCG(8, 8)))
}

func TestMedianAbsStableKnownValues(t *testing.T) {
	// p=1: Cauchy, median|X| = tan(pi/4) = 1 exactly.
	if got := MedianAbsStable(1); got != 1 {
		t.Errorf("median |Cauchy| = %g, want 1", got)
	}
	// p=2: CMS yields N(0,2); median |X| = sqrt(2) * 0.67449.
	want := math.Sqrt2 * 0.6744897501
	if got := MedianAbsStable(2); math.Abs(got-want) > 0.02 {
		t.Errorf("median |stable_2| = %g, want %.4f", got, want)
	}
	// Cache must return identical values.
	if MedianAbsStable(1.37) != MedianAbsStable(1.37) {
		t.Error("calibration not cached deterministically")
	}
}

func TestCMSStableCauchyShape(t *testing.T) {
	// For p=1 the transform reduces to tan(theta): check quartiles.
	if got := cmsStable(1, 0.75, 0.3); math.Abs(got-1) > 1e-9 {
		t.Errorf("cmsStable(1, .75, _) = %g, want tan(pi/4)=1", got)
	}
	if got := cmsStable(1, 0.5, 0.3); math.Abs(got) > 1e-9 {
		t.Errorf("cmsStable(1, .5, _) = %g, want 0", got)
	}
}

func TestEstimatorInterfaceCompliance(t *testing.T) {
	var _ Estimator = NewAMS(2, 2, rand.New(rand.NewPCG(9, 9)))
	var _ Estimator = NewStable(1, 2, rand.New(rand.NewPCG(9, 9)))
}

func TestSpaceBitsGrowth(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 10))
	small := NewStable(1, 10, r)
	big := NewStable(1, 40, r)
	if codec.PayloadBits(big) <= codec.PayloadBits(small) {
		t.Error("space must grow with counter count")
	}
	a := NewAMS(4, 4, r)
	if codec.PayloadBits(a) < 16*64 {
		t.Error("AMS space accounting too small")
	}
}

func TestMergeSameSeedMatchesSerial(t *testing.T) {
	st := stream.RandomTurnstile(200, 2000, 30, rand.New(rand.NewPCG(61, 62)))
	for _, tc := range []struct {
		name string
		mk   func(seed uint64) Estimator
	}{
		{"ams", func(seed uint64) Estimator { return NewAMS(7, 5, rand.New(rand.NewPCG(seed, seed+1))) }},
		{"stable", func(seed uint64) Estimator { return NewStable(1.2, 40, rand.New(rand.NewPCG(seed, seed+1))) }},
	} {
		a, b := tc.mk(63), tc.mk(63)
		st[:1000].FeedBatch(2048, a)
		st[1000:].FeedBatch(2048, b)
		if err := a.Merge(b); err != nil {
			t.Fatalf("%s: same-seed merge failed: %v", tc.name, err)
		}
		// The merged estimate must agree with a serial estimator up to float
		// addition reordering (counters are sums of the same terms).
		serial := tc.mk(63)
		st.FeedBatch(2048, serial)
		got, want := a.Estimate(nil), serial.Estimate(nil)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: merged estimate %v != serial %v", tc.name, got, want)
		}
		if err := a.Merge(tc.mk(64)); err == nil {
			t.Fatalf("%s: expected error merging differently seeded sketches", tc.name)
		}
	}
	// Cross-type merges are rejected.
	ams := NewAMS(7, 5, rand.New(rand.NewPCG(65, 66)))
	stb := NewStable(1.2, 40, rand.New(rand.NewPCG(65, 66)))
	if err := ams.Merge(stb); err == nil {
		t.Fatal("expected error merging AMS with Stable")
	}
}

// TestSubtractionOrderIsDeterministic: the explicit vector is subtracted in
// slice order, so repeated estimates of one unchanged sketch are bit-equal.
// (The subtraction cancels heavily; when the vector was a map, Go's random
// iteration order made every call round differently.)
func TestSubtractionOrderIsDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(81, 82))
	zhat := make([]Entry, 32)
	ams, stable := NewAMS(9, 6, r), NewStable(1, 40, r)
	idx, del := make([]uint64, len(zhat)), make([]float64, len(zhat))
	for k := range zhat {
		i, v := uint64(r.IntN(1<<14)), (r.Float64()-0.5)*math.Exp(20*r.Float64())
		idx[k], del[k] = i, v
		zhat[k] = Entry{Index: i, Value: v * (1 + 1e-9*r.Float64())}
	}
	ams.AddFloatBatch(idx, del)
	stable.AddFloatBatch(idx, del)
	for _, est := range []Estimator{ams, stable} {
		first := est.UpperEstimate(zhat)
		for k := 0; k < 100; k++ {
			if again := est.UpperEstimate(zhat); math.Float64bits(again) != math.Float64bits(first) {
				t.Fatalf("%T: call %d returned %v, first call %v", est, k, again, first)
			}
		}
	}
}
