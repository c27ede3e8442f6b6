package norm

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestPropertyScaleEquivariance: norms are absolutely homogeneous; scaling
// every update by c scales the estimate by |c| exactly (the estimators are
// deterministic given their randomness).
func TestPropertyScaleEquivariance(t *testing.T) {
	f := func(seed uint64, raw []int16, cRaw int8) bool {
		c := float64(cRaw)
		if c == 0 {
			return true
		}
		const n = 32
		mkA := NewStable(1, 20, rand.New(rand.NewPCG(seed, 3)))
		mkB := NewStable(1, 20, rand.New(rand.NewPCG(seed, 3)))
		var idx []uint64
		var da, db []float64
		for k, v := range raw {
			if v == 0 {
				continue
			}
			idx = append(idx, uint64(k%n))
			da, db = append(da, float64(v)), append(db, float64(v)*c)
		}
		mkA.AddFloatBatch(idx, da)
		mkB.AddFloatBatch(idx, db)
		a := mkA.Estimate(nil) * math.Abs(c)
		b := mkB.Estimate(nil)
		return math.Abs(a-b) <= 1e-6*(math.Abs(a)+math.Abs(b)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// subtractionUpdates turns the non-zero raw values into updates of key k mod
// n, in order, and adds each to the explicit vector total.
func subtractionUpdates(raw []int16, n int, total []Entry) ([]uint64, []float64) {
	var idx []uint64
	var del []float64
	for k, v := range raw {
		if v == 0 {
			continue
		}
		i := uint64(k % n)
		idx, del = append(idx, i), append(del, float64(v))
		total[i].Value += float64(v)
	}
	return idx, del
}

// TestPropertyAMSSubtractionExact: subtracting the full explicit vector from
// the sketch estimate yields (near) zero — counter-level linearity.
func TestPropertyAMSSubtractionExact(t *testing.T) {
	f := func(seed uint64, raw []int16) bool {
		const n = 32
		a := NewAMS(5, 4, rand.New(rand.NewPCG(seed, 7)))
		total := make([]Entry, n)
		for i := range total {
			total[i].Index = uint64(i)
		}
		idx, del := subtractionUpdates(raw, n, total)
		a.AddFloatBatch(idx, del)
		res := a.Estimate(total)
		return res < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStableSubtractionExact: same for the p-stable sketch.
func TestPropertyStableSubtractionExact(t *testing.T) {
	f := func(seed uint64, raw []int16) bool {
		const n = 32
		s := NewStable(1.3, 15, rand.New(rand.NewPCG(seed, 11)))
		total := make([]Entry, n)
		for i := range total {
			total[i].Index = uint64(i)
		}
		idx, del := subtractionUpdates(raw, n, total)
		s.AddFloatBatch(idx, del)
		return s.Estimate(total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUpperDominatesEstimate: UpperEstimate is always exactly 4/3 of
// Estimate, whatever the state.
func TestPropertyUpperDominatesEstimate(t *testing.T) {
	f := func(seed uint64, raw []int16) bool {
		const n = 16
		s := NewStable(0.7, 12, rand.New(rand.NewPCG(seed, 13)))
		s.AddFloatBatch(subtractionUpdates(raw, n, make([]Entry, n)))
		e, u := s.Estimate(nil), s.UpperEstimate(nil)
		return math.Abs(u-e*4/3) <= 1e-9*(u+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCMSStableSymmetric: the CMS transform is symmetric in theta
// around u1 = 0.5 — cmsStable(p, 0.5+d, w) = -cmsStable(p, 0.5-d, w).
func TestPropertyCMSStableSymmetric(t *testing.T) {
	f := func(pRaw, dRaw, wRaw uint8) bool {
		p := 0.2 + 1.8*float64(pRaw)/256
		d := 0.49 * float64(dRaw) / 256
		w := (float64(wRaw) + 1) / 257
		a := cmsStable(p, 0.5+d, w)
		b := cmsStable(p, 0.5-d, w)
		return math.Abs(a+b) <= 1e-9*(math.Abs(a)+math.Abs(b))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
