package reservoir

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

func TestL1PerfectSampling(t *testing.T) {
	// Weights 1,2,3,4: sampling frequencies must match u_i / sum.
	r := rand.New(rand.NewPCG(1, 1))
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		l := NewL1(r)
		for i, w := range weights {
			if err := l.Add(i, w); err != nil {
				t.Fatal(err)
			}
		}
		i, ok := l.Sample()
		if !ok {
			t.Fatal("sampler with mass must not fail")
		}
		counts[i]++
	}
	for i, w := range weights {
		want := w / 10 * trials
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d sampled %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestL1SplitUpdatesEquivalent(t *testing.T) {
	// An item delivered as two partial updates keeps the right total mass.
	r := rand.New(rand.NewPCG(2, 2))
	counts := make([]int, 2)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		l := NewL1(r)
		l.Add(0, 3)
		l.Add(1, 1)
		l.Add(1, 2) // index 1 also totals 3
		i, _ := l.Sample()
		counts[i]++
	}
	if math.Abs(float64(counts[0])-trials/2) > 6*math.Sqrt(trials/4) {
		t.Errorf("split updates biased: %v", counts)
	}
}

func TestL1RejectsNegative(t *testing.T) {
	l := NewL1(rand.New(rand.NewPCG(3, 3)))
	if err := l.Add(0, -1); err != ErrNegativeUpdate {
		t.Fatalf("err = %v, want ErrNegativeUpdate", err)
	}
	l2 := NewL1(rand.New(rand.NewPCG(3, 4)))
	l2.Process(stream.Update{Index: 0, Delta: 5})
	l2.Process(stream.Update{Index: 1, Delta: -2})
	if _, ok := l2.Sample(); ok {
		t.Fatal("poisoned sampler must fail")
	}
}

func TestL1Empty(t *testing.T) {
	l := NewL1(rand.New(rand.NewPCG(4, 4)))
	if _, ok := l.Sample(); ok {
		t.Fatal("empty sampler must fail")
	}
}

func TestItemsCatchesPlantedDuplicate(t *testing.T) {
	// A letter occupying a constant fraction of the stream is caught with
	// very high probability by O(1) samples.
	r := rand.New(rand.NewPCG(5, 5))
	const n, length = 100, 200
	caught := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		s := NewItems(40, length, r)
		for pos := 0; pos < length; pos++ {
			s.ProcessItem(pos % n) // every letter appears exactly twice
		}
		if d, ok := s.Duplicate(); ok {
			if d < 0 || d >= n {
				t.Fatalf("bogus duplicate %d", d)
			}
			caught++
		}
	}
	if caught < trials*8/10 {
		t.Errorf("caught only %d/%d", caught, trials)
	}
}

func TestItemsNoFalsePositive(t *testing.T) {
	// A duplicate-free stream must never report one.
	r := rand.New(rand.NewPCG(6, 6))
	s := NewItems(50, 100, r)
	for i := 0; i < 100; i++ {
		s.ProcessItem(i)
	}
	if d, ok := s.Duplicate(); ok {
		t.Fatalf("false duplicate %d on distinct stream", d)
	}
}

func TestItemsSelfMatchAvoided(t *testing.T) {
	// A letter sampled at its own position must not match itself; with every
	// position sampled, a distinct stream still reports nothing.
	r := rand.New(rand.NewPCG(7, 7))
	s := NewItems(500, 10, r) // k >> length: all positions sampled
	for i := 0; i < 10; i++ {
		s.ProcessItem(i)
	}
	if _, ok := s.Duplicate(); ok {
		t.Fatal("self-match bug")
	}
}

func TestItemsSectionThreeRegime(t *testing.T) {
	// The §3 regime: length n+s, k = 4*ceil(n/s) positions catches a
	// duplicate with constant probability.
	r := rand.New(rand.NewPCG(8, 8))
	const n = 400
	const s = 100
	caught := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		items := stream.LongItems(n, s, r)
		k := 4 * ((n + s - 1) / s)
		rs := NewItems(k, len(items), r)
		for _, it := range items {
			rs.ProcessItem(it)
		}
		if _, ok := rs.Duplicate(); ok {
			caught++
		}
	}
	// Theory: per sampled position, recurrence probability >= s/(n+s) = 0.2;
	// with 16 samples, catch rate ~ 1-(0.8)^16 ≈ 0.97 on random streams.
	if caught < trials/2 {
		t.Errorf("caught %d/%d, want constant rate", caught, trials)
	}
}

func TestSpaceBits(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	small := NewItems(10, 100, r)
	big := NewItems(100, 1000, r)
	if big.SpaceBits() <= small.SpaceBits() {
		t.Error("Items space must grow with k")
	}
}
