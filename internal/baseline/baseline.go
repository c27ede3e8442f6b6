// Package baseline implements the prior-work algorithms the paper improves
// on, for the space-shape comparisons in EXPERIMENTS.md:
//
//   - AKOSampler: the Andoni-Krauthgamer-Onak precision sampler [1] with
//     pairwise-independent scaling factors and a count-sketch inflated by a
//     Θ(log n) factor (their analysis needs the heaviest coordinate of z to
//     carry an Ω(1/log n) fraction of ‖z‖, hence m' = Θ(ε^{-p} log n)) —
//     O(ε^{-p} log³ n) bits total versus this paper's O(ε^{-p} log² n).
//   - FISL0: the Frahling-Indyk-Sohler style L0 sampler [12]: Θ(log n)
//     subsampling levels, each carrying Θ(log n) independent 1-sparse
//     detectors — O(log³ n) bits versus Theorem 2's O(log² n).
//   - Bitmap: the deterministic n-bit duplicate finder, used as a
//     correctness oracle in the duplicates experiments.
//
// The AKO constants are reconstructed from the paper's description (the
// manuscript's own constants are not in our source text); the log-factor
// shape, not the constants, is what E2/E3 measure.
package baseline

import (
	"math"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/countsketch"
	"repro/internal/hash"
	"repro/internal/norm"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// AKOSampler is the [1]-style Lp sampler: structure of Figure 1, but
// pairwise t_i and a log n-factor-wider count-sketch, no s-test.
type AKOSampler struct {
	p      float64
	n      int
	eps    float64
	copies []*akoCopy
	rNorm  *norm.Stable
	tMin   float64
}

type akoCopy struct {
	t       *hash.FlatFamily
	cs      *countsketch.Sketch
	guarded bool
}

// NewAKO constructs the baseline sampler with the given repetition count.
func NewAKO(p float64, n int, eps float64, copies int, r *rand.Rand) *AKOSampler {
	if p <= 0 || p >= 2 {
		panic("baseline: AKO sampler requires p in (0,2)")
	}
	if copies < 1 {
		copies = 1
	}
	logn := math.Log2(float64(n))
	if logn < 4 {
		logn = 4
	}
	// m' = Θ(ε^{-p} log n): the log-factor-wider sketch of [1].
	m := int(math.Ceil(2 * math.Pow(eps, -p) * logn))
	rows := int(math.Ceil(logn)) + 4
	s := &AKOSampler{
		p:      p,
		n:      n,
		eps:    eps,
		copies: make([]*akoCopy, copies),
		rNorm:  norm.NewStable(p, 80, r),
		tMin:   math.Pow(float64(n), -2) / 16,
	}
	for c := range s.copies {
		s.copies[c] = &akoCopy{
			t:  hash.NewFlatFamily(1, 2, r), // pairwise, per [1]
			cs: countsketch.New(m, rows, r),
		}
	}
	return s
}

// M returns the inflated count-sketch parameter m'.
func (s *AKOSampler) M() int { return s.copies[0].cs.M() }

// Process implements stream.Sink.
func (s *AKOSampler) Process(u stream.Update) {
	i := uint64(u.Index)
	d := float64(u.Delta)
	s.rNorm.Process(u)
	invP := 1 / s.p
	for _, c := range s.copies {
		ti := c.t.Float64(0, i)
		if ti < s.tMin {
			c.guarded = true
			continue
		}
		c.cs.Add(i, d*math.Pow(ti, -invP))
	}
}

// Sample returns the first repetition whose maximum scaled coordinate
// crosses the ε^{-1/p} r threshold.
func (s *AKOSampler) Sample() (int, float64, bool) {
	r := s.rNorm.UpperEstimate(nil)
	if r == 0 {
		return -1, 0, false
	}
	invP := 1 / s.p
	threshold := math.Pow(s.eps, -invP) * r
	for _, c := range s.copies {
		if c.guarded {
			continue
		}
		top := c.cs.Top(s.n, 1)
		if len(top) == 0 || math.Abs(top[0].Estimate) < threshold {
			continue
		}
		ti := c.t.Float64(0, uint64(top[0].Index))
		return top[0].Index, top[0].Estimate * math.Pow(ti, invP), true
	}
	return -1, 0, false
}

// AppendState writes the linear state, every repetition's count-sketch
// cells and then the norm counters, into a codec encoder: the
// O(ε^{-p} log³ n) bits codec.PayloadBits measures.
func (s *AKOSampler) AppendState(e *codec.Encoder) {
	for _, c := range s.copies {
		c.cs.AppendState(e)
	}
	s.rNorm.AppendState(e)
}

// FISL0 is the [12]-style L0 sampler: per level, Θ(log n) independent
// 1-sparse detectors instead of one shared s-sparse recoverer.
type FISL0 struct {
	n         int
	levels    int
	reps      int
	detectors [][]*sparse.Recoverer // [level][rep], sparsity 1 each
	members   [][]*hash.FlatFamily  // membership hash per (level, rep)
}

// NewFISL0 constructs the baseline with reps = Θ(log(n)·log(1/δ))-ish
// detectors per level (pass explicitly).
func NewFISL0(n, reps int, r *rand.Rand) *FISL0 {
	levels := 1
	for 1<<levels < n {
		levels++
	}
	levels++
	f := &FISL0{n: n, levels: levels, reps: reps}
	f.detectors = make([][]*sparse.Recoverer, levels)
	f.members = make([][]*hash.FlatFamily, levels)
	for k := 0; k < levels; k++ {
		f.detectors[k] = make([]*sparse.Recoverer, reps)
		f.members[k] = make([]*hash.FlatFamily, reps)
		for j := 0; j < reps; j++ {
			f.detectors[k][j] = sparse.New(n, 1, r)
			f.members[k][j] = hash.NewFlatFamily(1, 2, r)
		}
	}
	return f
}

// member: coordinate i survives to level k in repetition j with probability
// 2^{-k} (independent subsampling chains per repetition).
func (f *FISL0) member(k, j, i int) bool {
	if k == 0 {
		return true
	}
	q := math.Pow(2, -float64(k))
	return f.members[k][j].Float64(0, uint64(i)) < q
}

// Process implements stream.Sink.
func (f *FISL0) Process(u stream.Update) {
	for k := 0; k < f.levels; k++ {
		for j := 0; j < f.reps; j++ {
			if f.member(k, j, u.Index) {
				f.detectors[k][j].Process(u)
			}
		}
	}
}

// Sample scans levels bottom-up for a detector holding exactly one nonzero
// coordinate and returns it with its exact value.
func (f *FISL0) Sample() (int, int64, bool) {
	for k := 0; k < f.levels; k++ {
		for j := 0; j < f.reps; j++ {
			rec, ok := f.detectors[k][j].Recover()
			if ok && len(rec) == 1 {
				for i, v := range rec {
					return i, v, true
				}
			}
		}
	}
	return -1, 0, false
}

// AppendState writes every detector's measurements into a codec encoder:
// the O(log³ n) bits, levels × reps × O(1) words, codec.PayloadBits measures.
func (f *FISL0) AppendState(e *codec.Encoder) {
	for _, lvl := range f.detectors {
		for _, d := range lvl {
			d.AppendState(e)
		}
	}
}

// Bitmap is the deterministic duplicate finder: one bit per letter. Linear
// space, zero error — the correctness oracle for the duplicates experiments.
type Bitmap struct {
	seen  []bool
	dup   int
	found bool
}

// NewBitmap creates the oracle for alphabet [n].
func NewBitmap(n int) *Bitmap { return &Bitmap{seen: make([]bool, n), dup: -1} }

// ProcessItem consumes one letter.
func (b *Bitmap) ProcessItem(letter int) {
	if b.seen[letter] && !b.found {
		b.dup = letter
		b.found = true
	}
	b.seen[letter] = true
}

// Duplicate reports the first repeated letter.
func (b *Bitmap) Duplicate() (int, bool) { return b.dup, b.found }
