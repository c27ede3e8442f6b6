package moments

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
)

func TestFpPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p <= 2")
		}
	}()
	NewFp(2, 100, 4, rand.New(rand.NewPCG(1, 1)))
}

func TestFpZeroVector(t *testing.T) {
	e := NewFp(3, 64, 4, rand.New(rand.NewPCG(2, 2)))
	if _, ok := e.Estimate(); ok {
		t.Fatal("zero vector must not produce an estimate")
	}
}

func TestFpSingleHeavyCoordinate(t *testing.T) {
	// One dominant coordinate: F_3 ≈ |x|^3; the estimator must land within
	// a small factor.
	r := rand.New(rand.NewPCG(3, 3))
	const n = 128
	good := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		e := NewFp(3, n, 8, r)
		for i := 0; i < n; i++ {
			e.Process(stream.Update{Index: i, Delta: 1})
		}
		e.Process(stream.Update{Index: 7, Delta: 999})
		truth := math.Pow(1000, 3) + float64(n-1)
		got, ok := e.Estimate()
		if !ok {
			continue
		}
		if got > truth/3 && got < truth*3 {
			good++
		}
	}
	if good < trials*7/10 {
		t.Errorf("F3 within 3x only %d/%d times", good, trials)
	}
}

func TestFpModerateSkew(t *testing.T) {
	// Zipf-ish magnitudes: the L1-importance estimator should track F_3
	// within a constant factor with a few dozen samples.
	if testing.Short() {
		t.Skip("statistical test")
	}
	r := rand.New(rand.NewPCG(4, 4))
	const n = 256
	st := stream.ZipfSigned(n, 1.2, 1000, r)
	truthVec := st.Apply(n)
	var truth float64
	for _, v := range truthVec.Coords() {
		truth += math.Pow(math.Abs(float64(v)), 3)
	}
	good := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		e := NewFp(3, n, 24, r)
		st.Feed(e)
		got, ok := e.Estimate()
		if !ok {
			continue
		}
		if got > truth/4 && got < truth*4 {
			good++
		}
	}
	if good < trials*2/3 {
		t.Errorf("F3 within 4x only %d/%d times (truth %.3g)", good, trials, truth)
	}
}

func TestFpSignInsensitive(t *testing.T) {
	// F_p uses |x_i|: flipping signs must not change the target, and the
	// estimator consumes |estimate| so it should behave identically.
	r := rand.New(rand.NewPCG(5, 5))
	const n = 64
	e := NewFp(4, n, 8, r)
	e.Process(stream.Update{Index: 3, Delta: -500})
	e.Process(stream.Update{Index: 9, Delta: 500})
	got, ok := e.Estimate()
	if !ok {
		t.Fatal("estimator failed on 2-sparse vector")
	}
	truth := 2 * math.Pow(500, 4)
	if got < truth/4 || got > truth*4 {
		t.Errorf("F4 = %.3g, truth %.3g", got, truth)
	}
}

func TestFpSpaceGrowsWithSamples(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	a := NewFp(3, 128, 2, r)
	b := NewFp(3, 128, 16, r)
	if codec.PayloadBits(b) <= codec.PayloadBits(a) {
		t.Error("space must grow with the sample count")
	}
}
