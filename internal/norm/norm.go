// Package norm implements the streaming Lp norm estimators of Lemma 2: for
// any p in (0,2] a linear sketch with l = O(log n) counters from which a
// value r with ||x||_p <= r <= 2||x||_p can be computed with high
// probability.
//
// Two estimators are provided:
//
//   - AMS (tug-of-war, Alon-Matias-Szegedy) for p = 2: counters
//     c_j = sum_i s_j(i) x_i with 4-wise independent signs; median-of-means
//     of c_j^2 concentrates to ||x||_2^2.
//   - Indyk's p-stable sketch for p in (0,2]: counters y_j = sum_i a_ji x_i
//     with p-stable a_ji; median_j |y_j| / median(|Stable_p|) concentrates to
//     ||x||_p.
//
// The p-stable variates are produced by the Chambers-Mallows-Stuck transform
// from two uniforms derived k-wise independently from (row, index) — the
// standard realization of the sketch Lemma 2 cites (Kane-Nelson-Woodruff).
// The scale constant median(|Stable_p|) has no closed form for general p; we
// calibrate it once per p by a fixed-seed Monte-Carlo quantile (the paper
// takes the constant as given).
//
// For p = 1 the transform is the Cauchy tan(π(u₁-½)) and does not depend on
// the second uniform, so a p = 1 sketch derives only the first: half the hash
// work, and no logarithm.
//
// Neither update path evaluates one hash row at one key. AddFloat evaluates
// all counters' rows at the update's key together (hash.SignRows /
// Float64Rows) into a row buffer the sketch owns; AddFloatBatch runs each
// counter's row over the whole batch through the SIMD kernel (hash.SignBatch
// / Float64Batch). Both then fold `counter += coefficient * delta` per
// counter in update order — the same expression in both, so the two paths
// (and any split of a stream into batches) leave bit-identical counters.
//
// Both sketches are linear, so callers may estimate ||x - v||, for a sparse v
// they know explicitly, by subtracting the sketch of v — exactly how the
// recovery stage of Figure 1 estimates s ~ ||z - zhat||_2 from L'(z)-L'(zhat).
package norm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/stream"
)

// Entry is one coordinate of an explicit sparse vector.
type Entry struct {
	Index uint64
	Value float64
}

// Estimator is the common interface of the two norm sketches.
type Estimator interface {
	stream.BatchSink
	AddFloat(i uint64, delta float64)
	// AddFloatBatch applies indices[t] += deltas[t] for all t through the
	// counter-major fast path; equivalent to repeated AddFloat calls.
	AddFloatBatch(indices []uint64, deltas []float64)
	// Estimate returns the norm estimate after subtracting the explicit
	// sparse vector `subtract` (pass nil to estimate ||x|| itself). The
	// entries are subtracted in slice order — the subtraction cancels
	// heavily, so the order is part of the result, and a fixed order makes
	// repeated calls on unchanged state bit-equal.
	Estimate(subtract []Entry) float64
	// UpperEstimate returns r calibrated so that ||x||_p <= r <= 2||x||_p
	// holds with high probability (Lemma 2's interface).
	UpperEstimate(subtract []Entry) float64
	// Merge adds another estimator's counters (sketch linearity); it errors
	// unless other is a same-seed replica of the same concrete type.
	Merge(other Estimator) error
	SpaceBits() int64
	// StateBits counts only the counters, excluding seeds — the message
	// size in a public-coin protocol.
	StateBits() int64
	// AppendState writes the counters into a codec encoder; RestoreState
	// replaces them from one (shape and seeds stay with the receiver).
	AppendState(e *codec.Encoder)
	RestoreState(d *codec.Decoder)
}

// ---------------------------------------------------------------------------
// AMS / tug-of-war L2 sketch
// ---------------------------------------------------------------------------

// AMS is the L2 estimator. Counters are split into groups; the estimate is
// the median over groups of the mean of squared counters in the group.
type AMS struct {
	groups   int
	perGroup int
	signs    *hash.FlatFamily // one 4-wise sign row per counter
	counters []float64

	// rowSgn holds every counter's sign at the one key of an AddFloat.
	rowSgn []float64

	// Batch scratch (key/delta views of the batch, per-counter kernel signs),
	// grown on demand: steady-state batched calls allocate nothing.
	scratchIdx []uint64
	scratchDel []float64
	scratchSgn []float64
}

// NewAMS creates an AMS sketch with the given number of groups (median width,
// Theta(log n) for high probability) and counters per group (mean width;
// 6 per group already gives variance comfortably below the factor-2 band).
func NewAMS(groups, perGroup int, r *rand.Rand) *AMS {
	if groups < 1 {
		groups = 1
	}
	if perGroup < 1 {
		perGroup = 1
	}
	n := groups * perGroup
	return &AMS{
		groups:   groups,
		perGroup: perGroup,
		signs:    hash.NewFlatFamily(n, 4, r),
		counters: make([]float64, n),
		rowSgn:   make([]float64, n),
	}
}

// AddFloat applies x_i += delta: all counters' sign rows are evaluated at the
// one key together (hash.SignRows), then the delta folds in.
func (a *AMS) AddFloat(i uint64, delta float64) {
	a.signs.SignRows(i, a.rowSgn)
	for j, g := range a.rowSgn {
		a.counters[j] += g * delta
	}
}

// growSigns ensures the per-counter kernel output can hold n entries.
func (a *AMS) growSigns(n int) {
	if cap(a.scratchSgn) < n {
		a.scratchSgn = make([]float64, n)
	}
}

// AddFloatBatch applies the batch counter-major: each counter's 4-wise sign
// row runs once through the SIMD SignBatch kernel, then the deltas fold in.
// Per-counter accumulation order matches repeated AddFloat calls, so the
// resulting state is bit-identical; steady-state calls allocate nothing.
func (a *AMS) AddFloatBatch(indices []uint64, deltas []float64) {
	a.growSigns(len(indices))
	sgn := a.scratchSgn[:len(indices)]
	for j := range a.counters {
		a.signs.SignBatch(j, indices, sgn)
		cj := a.counters[j]
		for t, g := range sgn {
			cj += g * deltas[t]
		}
		a.counters[j] = cj
	}
}

// Process implements stream.Sink.
func (a *AMS) Process(u stream.Update) { a.AddFloat(uint64(u.Index), float64(u.Delta)) }

// ProcessBatch implements stream.BatchSink.
func (a *AMS) ProcessBatch(batch []stream.Update) {
	a.AddFloatBatch(stream.Keys(batch, &a.scratchIdx), stream.FloatDeltas(batch, &a.scratchDel))
}

// Merge adds another AMS sketch's counters; other must be a same-seed *AMS
// replica of identical shape.
func (a *AMS) Merge(other Estimator) error {
	if other == nil {
		return fmt.Errorf("norm: %w", codec.ErrNilMerge)
	}
	o, ok := other.(*AMS)
	if !ok {
		return fmt.Errorf("norm: merging AMS with %T: %w", other, codec.ErrConfigMismatch)
	}
	if o == nil {
		return fmt.Errorf("norm: %w", codec.ErrNilMerge)
	}
	if a.groups != o.groups || a.perGroup != o.perGroup {
		return fmt.Errorf("norm: merging AMS sketches of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !a.signs.Equal(o.signs) {
		return fmt.Errorf("norm: %w", codec.ErrSeedMismatch)
	}
	for j := range a.counters {
		a.counters[j] += o.counters[j]
	}
	return nil
}

// Estimate returns the median-of-means estimate of ||x - subtract||_2.
func (a *AMS) Estimate(subtract []Entry) float64 {
	means := make([]float64, a.groups)
	for gi := 0; gi < a.groups; gi++ {
		var sum float64
		for k := 0; k < a.perGroup; k++ {
			j := gi*a.perGroup + k
			c := a.counters[j]
			for _, e := range subtract {
				c -= float64(a.signs.Sign(j, e.Index)) * e.Value
			}
			sum += c * c
		}
		means[gi] = sum / float64(a.perGroup)
	}
	sort.Float64s(means)
	var med float64
	if a.groups%2 == 1 {
		med = means[a.groups/2]
	} else {
		med = (means[a.groups/2-1] + means[a.groups/2]) / 2
	}
	return math.Sqrt(med)
}

// UpperEstimate returns 4/3 * Estimate: the median-of-means concentrates
// within ±25% of the truth w.h.p., so the scaled value lands in
// [||x||, 2||x||] w.h.p.
func (a *AMS) UpperEstimate(subtract []Entry) float64 {
	return a.Estimate(subtract) * 4 / 3
}

// SpaceBits reports counters plus 4-wise seeds.
func (a *AMS) SpaceBits() int64 {
	return int64(len(a.counters))*64 + a.signs.SpaceBits()
}

// StateBits reports counters only.
func (a *AMS) StateBits() int64 { return int64(len(a.counters)) * 64 }

// AppendState writes the counters into a codec encoder.
func (a *AMS) AppendState(e *codec.Encoder) {
	for _, c := range a.counters {
		e.F64(c)
	}
}

// RestoreState replaces the counters from a codec decoder.
func (a *AMS) RestoreState(d *codec.Decoder) {
	for j := range a.counters {
		a.counters[j] = d.F64()
	}
}

// ---------------------------------------------------------------------------
// Indyk p-stable sketch
// ---------------------------------------------------------------------------

// Stable is the Lp estimator for p in (0,2].
type Stable struct {
	p        float64
	counters []float64
	seeds    *hash.FlatFamily // one k-wise hash row per counter, yields 2 uniforms per key
	scale    float64          // median of |Stable_p|

	// rowU1/rowU2 hold every counter's CMS uniforms at the one coordinate of
	// an AddFloat (rowU2 is nil at p = 1, which needs no second uniform).
	rowU1 []float64
	rowU2 []float64

	// Batch scratch (index/delta views of the batch, doubled key views
	// 2i/2i+1, per-counter uniforms), grown on demand: steady-state batched
	// calls allocate nothing. At p = 1 the 2i+1 views stay empty.
	scratchIdx []uint64
	scratchDel []float64
	scratchK1  []uint64
	scratchK2  []uint64
	scratchU1  []float64
	scratchU2  []float64
}

// NewStable creates a p-stable sketch with the given number of counters
// (Theta(log n) for the high-probability factor-2 guarantee of Lemma 2).
func NewStable(p float64, counters int, r *rand.Rand) *Stable {
	if p <= 0 || p > 2 {
		panic("norm: stable sketch requires p in (0,2]")
	}
	if counters < 1 {
		counters = 1
	}
	s := &Stable{
		p:        p,
		counters: make([]float64, counters),
		seeds:    hash.NewFlatFamily(counters, 8, r),
		scale:    MedianAbsStable(p),
		rowU1:    make([]float64, counters),
	}
	if p != 1 {
		s.rowU2 = make([]float64, counters)
	}
	return s
}

// stableAt deterministically produces the p-stable coefficient a_ji for
// counter j and coordinate i via the CMS transform of two uniforms derived
// from the row's hash at the disjoint keys 2i and 2i+1. At p = 1 the
// transform does not depend on the second uniform, so it is not derived.
func (s *Stable) stableAt(j int, i uint64) float64 {
	u1 := s.seeds.Float64(j, 2*i)
	if s.p == 1 {
		return cauchy(u1)
	}
	return cmsStable(s.p, u1, s.seeds.Float64(j, 2*i+1))
}

// cauchy is the Chambers-Mallows-Stuck transform at p = 1: the exponential
// factor has exponent (1-p)/p = 0, leaving tan(θ), a function of u1 alone.
func cauchy(u1 float64) float64 { return math.Tan(math.Pi * (u1 - 0.5)) }

// cmsStable maps two independent uniforms in (0,1] to a standard symmetric
// p-stable variate by the Chambers-Mallows-Stuck transform; u2 is not read
// at p = 1.
func cmsStable(p, u1, u2 float64) float64 {
	if p == 1 {
		return cauchy(u1)
	}
	theta := math.Pi * (u1 - 0.5) // uniform in (-pi/2, pi/2)
	w := -math.Log(u2)            // exponential(1), u2 in (0,1] so w >= 0
	if w == 0 {
		w = 1e-300
	}
	return math.Sin(p*theta) / math.Pow(math.Cos(theta), 1/p) *
		math.Pow(math.Cos(theta*(1-p))/w, (1-p)/p)
}

// AddFloat applies x_i += delta: all counters' hash rows are evaluated at the
// coordinate's key(s) together (hash.Float64Rows), then the transform and the
// delta fold in.
func (s *Stable) AddFloat(i uint64, delta float64) {
	u1 := s.rowU1
	s.seeds.Float64Rows(2*i, u1)
	if s.p == 1 {
		for j, u := range u1 {
			s.counters[j] += cauchy(u) * delta
		}
		return
	}
	u2 := s.rowU2
	s.seeds.Float64Rows(2*i+1, u2)
	for j, u := range u1 {
		s.counters[j] += cmsStable(s.p, u, u2[j]) * delta
	}
}

// growKeys ensures the doubled-key and uniform scratch can hold n entries and
// fills the key views from indices (2i and, unless p = 1, 2i+1 — the disjoint
// key spaces of stableAt).
func (s *Stable) growKeys(indices []uint64) {
	n := len(indices)
	if cap(s.scratchK1) < n {
		s.scratchK1 = make([]uint64, n)
		s.scratchU1 = make([]float64, n)
		if s.p != 1 {
			s.scratchK2 = make([]uint64, n)
			s.scratchU2 = make([]float64, n)
		}
	}
	k1 := s.scratchK1[:n]
	for t, i := range indices {
		k1[t] = 2 * i
	}
	if s.p != 1 {
		k2 := s.scratchK2[:n]
		for t, i := range indices {
			k2[t] = 2*i + 1
		}
	}
}

// AddFloatBatch applies the batch counter-major: each counter's 8-wise row
// produces the CMS uniforms for the whole batch through the SIMD Float64Batch
// kernel (one pass at p = 1, two otherwise), then the transform and deltas
// fold in. State is bit-identical to repeated AddFloat calls; steady-state
// calls allocate nothing.
func (s *Stable) AddFloatBatch(indices []uint64, deltas []float64) {
	s.growKeys(indices)
	n := len(indices)
	k1, u1 := s.scratchK1[:n], s.scratchU1[:n]
	if s.p == 1 {
		for j := range s.counters {
			s.seeds.Float64Batch(j, k1, u1)
			cj := s.counters[j]
			for t, u := range u1 {
				cj += cauchy(u) * deltas[t]
			}
			s.counters[j] = cj
		}
		return
	}
	k2, u2 := s.scratchK2[:n], s.scratchU2[:n]
	for j := range s.counters {
		s.seeds.Float64Batch(j, k1, u1)
		s.seeds.Float64Batch(j, k2, u2)
		cj := s.counters[j]
		for t := range u1 {
			cj += cmsStable(s.p, u1[t], u2[t]) * deltas[t]
		}
		s.counters[j] = cj
	}
}

// Process implements stream.Sink.
func (s *Stable) Process(u stream.Update) { s.AddFloat(uint64(u.Index), float64(u.Delta)) }

// ProcessBatch implements stream.BatchSink.
func (s *Stable) ProcessBatch(batch []stream.Update) {
	s.AddFloatBatch(stream.Keys(batch, &s.scratchIdx), stream.FloatDeltas(batch, &s.scratchDel))
}

// Merge adds another p-stable sketch's counters; other must be a same-seed
// *Stable replica with the same p and shape.
func (s *Stable) Merge(other Estimator) error {
	if other == nil {
		return fmt.Errorf("norm: %w", codec.ErrNilMerge)
	}
	o, ok := other.(*Stable)
	if !ok {
		return fmt.Errorf("norm: merging Stable with %T: %w", other, codec.ErrConfigMismatch)
	}
	if o == nil {
		return fmt.Errorf("norm: %w", codec.ErrNilMerge)
	}
	if s.p != o.p || len(s.counters) != len(o.counters) {
		return fmt.Errorf("norm: merging Stable sketches of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !s.seeds.Equal(o.seeds) {
		return fmt.Errorf("norm: %w", codec.ErrSeedMismatch)
	}
	for j := range s.counters {
		s.counters[j] += o.counters[j]
	}
	return nil
}

// Estimate returns median_j |y_j| / median(|Stable_p|), the classical Indyk
// estimator of ||x - subtract||_p.
func (s *Stable) Estimate(subtract []Entry) float64 {
	abs := make([]float64, len(s.counters))
	for j := range s.counters {
		c := s.counters[j]
		for _, e := range subtract {
			c -= s.stableAt(j, e.Index) * e.Value
		}
		abs[j] = math.Abs(c)
	}
	sort.Float64s(abs)
	n := len(abs)
	var med float64
	if n%2 == 1 {
		med = abs[n/2]
	} else {
		med = (abs[n/2-1] + abs[n/2]) / 2
	}
	return med / s.scale
}

// UpperEstimate returns 4/3 * Estimate, landing in [||x||_p, 2||x||_p] w.h.p.
// for Theta(log n) counters.
func (s *Stable) UpperEstimate(subtract []Entry) float64 {
	return s.Estimate(subtract) * 4 / 3
}

// SpaceBits reports counters plus seeds.
func (s *Stable) SpaceBits() int64 {
	return int64(len(s.counters))*64 + s.seeds.SpaceBits()
}

// StateBits reports counters only.
func (s *Stable) StateBits() int64 { return int64(len(s.counters)) * 64 }

// AppendState writes the counters into a codec encoder.
func (s *Stable) AppendState(e *codec.Encoder) {
	for _, c := range s.counters {
		e.F64(c)
	}
}

// RestoreState replaces the counters from a codec decoder.
func (s *Stable) RestoreState(d *codec.Decoder) {
	for j := range s.counters {
		s.counters[j] = d.F64()
	}
}

// ---------------------------------------------------------------------------
// Scale calibration
// ---------------------------------------------------------------------------

var (
	// medianMu guards medianCache: sketches may be constructed from many
	// goroutines at once (the sharded ingestion engine builds replicas
	// concurrently with live workers).
	medianMu    sync.Mutex
	medianCache = map[float64]float64{}
)

// MedianAbsStable returns the median of |X| for X standard symmetric
// p-stable, computed by a deterministic fixed-seed Monte-Carlo quantile and
// cached per p. For p = 1 (Cauchy) the exact value is tan(pi/4) = 1; for
// p = 2 the CMS output is N(0, 2), so the value is sqrt(2)*Phi^-1(3/4).
func MedianAbsStable(p float64) float64 {
	medianMu.Lock()
	defer medianMu.Unlock()
	if v, ok := medianCache[p]; ok {
		return v
	}
	if p == 1 {
		medianCache[p] = 1
		return 1
	}
	const samples = 1 << 18
	r := rand.New(rand.NewPCG(0xC0FFEE, uint64(math.Float64bits(p))))
	abs := make([]float64, samples)
	for i := range abs {
		a := r.Float64()
		b := r.Float64()
		if a == 0 {
			a = 0.5 / samples
		}
		if b == 0 {
			b = 0.5 / samples
		}
		abs[i] = math.Abs(cmsStable(p, a, b))
	}
	sort.Float64s(abs)
	v := abs[samples/2]
	medianCache[p] = v
	return v
}
