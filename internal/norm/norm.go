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
// Both sketches have one update path, AddFloatBatch. It walks the batch in
// chunks of foldChunk keys and the counters in groups of evalGroup rows. One
// hash.EvalRows (Float64Rows) call evaluates a group's rows over the chunk
// into one scratch block: on the IFMA tier each block of eight keys has its
// powers x..x^(k-1) built once for all the group's rows, and each row sums
// its coefficient·power products unreduced and reduces once, where per-row
// Horner pays a reduction and a multiply latency per coefficient. At p = 1
// one kernel.Cauchy call then transforms the whole block, and the counters
// fold foldGroup at a time, one accumulator each — four independent add
// chains in flight instead of one chain as long as the batch, over a block
// that stays in L1 whatever the batch size. Every counter adds its terms in
// update order and each term is the same product, so any split of a stream
// into batches or chunks leaves bit-identical counters. Process is a batch of
// one, there for stream.Sink; the samplers that take single updates buffer
// them (stream.Pending) and fold them a batch at a time. The AMS term g·δ
// with g = ±1 is δ with its sign bit flipped when g = -1, exactly, so the
// fold XORs the hash value's low bit into δ's sign instead of converting it
// to ±1.0 first.
//
// Both sketches are linear, so callers may estimate ||x - v||, for a sparse v
// they know explicitly, by subtracting the sketch of v — exactly how the
// recovery stage of Figure 1 estimates s ~ ||z - zhat||_2 from L'(z)-L'(zhat).
package norm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/hash"
	"repro/internal/kernel"
	"repro/internal/stream"
)

// Entry is one coordinate of an explicit sparse vector.
type Entry struct {
	Index uint64
	Value float64
}

// Estimator is the common interface of the two norm sketches.
type Estimator interface {
	// BatchSink's Process is a batch of one; a caller with single updates
	// buffers them (stream.Pending) rather than pay a fold per update.
	stream.BatchSink
	// AddFloatBatch applies x[indices[t]] += deltas[t] for all t in order, the
	// one fold every update path runs; any split of a stream into batches
	// leaves bit-identical counters.
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
	// AppendState writes the counters into a codec encoder; RestoreState
	// replaces them from one (shape and seeds stay with the receiver).
	AppendState(e *codec.Encoder)
	RestoreState(d *codec.Decoder)
}

// foldChunk is how many keys of a batch the batch paths evaluate per pass,
// evalGroup how many counters' rows one kernel call evaluates over them (a
// 16 KiB block, L1-resident; one IFMA call takes up to 16 rows, and the
// shared power table costs less per row the more rows share it), and
// foldGroup how many of those counters fold together, four independent
// accumulators. (Eight measured no faster: the compiler spills two of eight
// accumulators.)
const (
	foldChunk = 128
	foldGroup = 4
	evalGroup = 16
)

// growBlock returns (*buf)[:n], reallocating when its capacity falls short.
func growBlock[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
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

	// Batch scratch (key/delta views of the batch, one row group's hash
	// values over one chunk), grown on demand: steady-state batched calls
	// allocate nothing. Estimate reuses the key view and block for the
	// subtracted keys and keeps its group means in scratchMeans.
	scratchIdx   []uint64
	scratchDel   []float64
	scratchBlk   []field.Elem
	scratchMeans []float64
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
	}
}

// AddFloatBatch applies the batch chunk by chunk and, within a chunk, row
// group by row group: the group's 4-wise sign rows run through one kernel
// call into one block of field values, then the group's counters fold the
// chunk's deltas foldGroup at a time, each with the delta's sign bit flipped
// where the value's low bit gives g = -1. Every counter adds its terms in
// update order, so any split of a stream into batches leaves bit-identical
// state; steady-state calls allocate nothing.
func (a *AMS) AddFloatBatch(indices []uint64, deltas []float64) {
	for lo := 0; lo < len(indices); lo += foldChunk {
		keys := indices[lo:min(lo+foldChunk, len(indices))]
		n := len(keys)
		blk := growBlock(&a.scratchBlk, evalGroup*n)
		for j := 0; j < len(a.counters); j += evalGroup {
			rows := min(evalGroup, len(a.counters)-j)
			a.signs.EvalRows(j, rows, keys, blk)
			for g := 0; g < rows; g += foldGroup {
				foldSigns(a.counters[j+g:j+min(g+foldGroup, rows)], blk[g*n:], deltas[lo:lo+n])
			}
		}
	}
}

// foldSigns adds g·d[t] into each counter of the group c for t ascending,
// where g = ±1 is the low bit of the counter's row value at key t, stored row
// after row in blk, len(d) values each. g·d is d with its sign bit flipped
// when the bit is 0 (signFloat's -1), exactly. A group of fewer than
// foldGroup counters repeats its last row; the repeats compute the same sum
// as that row, so storing them back is harmless.
func foldSigns(c []float64, blk []field.Elem, d []float64) {
	n, last := len(d), len(c)-1
	r0 := blk[:n]
	r1 := blk[min(1, last)*n:][:n]
	r2 := blk[min(2, last)*n:][:n]
	r3 := blk[min(3, last)*n:][:n]
	c0, c1, c2, c3 := c[0], c[min(1, last)], c[min(2, last)], c[min(3, last)]
	for t, dt := range d {
		nd := math.Float64bits(dt) ^ 1<<63 // -dt, the term where the bit is 0
		c0 += math.Float64frombits(nd ^ uint64(r0[t])<<63)
		c1 += math.Float64frombits(nd ^ uint64(r1[t])<<63)
		c2 += math.Float64frombits(nd ^ uint64(r2[t])<<63)
		c3 += math.Float64frombits(nd ^ uint64(r3[t])<<63)
	}
	c[min(3, last)], c[min(2, last)], c[min(1, last)], c[0] = c3, c2, c1, c0
}

// Process implements stream.Sink as a batch of one over the sketch's own
// key and delta views. Callers with many updates use ProcessBatch.
func (a *AMS) Process(u stream.Update) {
	a.scratchIdx = append(a.scratchIdx[:0], uint64(u.Index))
	a.scratchDel = append(a.scratchDel[:0], float64(u.Delta))
	a.AddFloatBatch(a.scratchIdx, a.scratchDel)
}

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

// Estimate returns the median-of-means estimate of ||x - subtract||_2. Every
// sign row meets subtract's keys in one kernel call, into scratch the sketch
// owns beside the median buffer, so Estimate (like the updates) is
// single-goroutine.
func (a *AMS) Estimate(subtract []Entry) float64 {
	n := len(subtract)
	keys := growBlock(&a.scratchIdx, n)
	for t, e := range subtract {
		keys[t] = e.Index
	}
	signs := growBlock(&a.scratchBlk, len(a.counters)*n)
	a.signs.EvalRows(0, len(a.counters), keys, signs)
	means := growBlock(&a.scratchMeans, a.groups)
	for gi := range means {
		var sum float64
		for k := 0; k < a.perGroup; k++ {
			j := gi*a.perGroup + k
			c := a.counters[j]
			for t, e := range subtract {
				c -= float64(int64(signs[j*n+t]&1)<<1-1) * e.Value // signs.Sign(j, e.Index)·e.Value
			}
			sum += c * c
		}
		means[gi] = sum / float64(a.perGroup)
	}
	slices.Sort(means)
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

	// Batch scratch (index/delta views of the batch, one chunk's doubled key
	// views 2i/2i+1, one row group's uniforms over the chunk), grown on
	// demand: steady-state batched calls allocate nothing. At p = 1 the 2i+1
	// views and the second block stay empty.
	scratchIdx  []uint64
	scratchDel  []float64
	scratchK1   []uint64
	scratchK2   []uint64
	scratchBlk  []float64
	scratchBlk2 []float64
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
	return &Stable{
		p:        p,
		counters: make([]float64, counters),
		seeds:    hash.NewFlatFamily(counters, 8, r),
		scale:    MedianAbsStable(p),
	}
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

// AddFloatBatch applies the batch chunk by chunk and, within a chunk, row
// group by row group: the group's 8-wise rows produce the CMS uniforms over
// the chunk in one Float64Rows call into one block (a second call and block
// for the 2i+1 uniforms unless p = 1), the block is transformed in place —
// at p = 1 by one kernel.Cauchy call — and the group's counters fold the
// chunk's deltas foldGroup at a time. Every counter adds its terms in update order,
// so any split of a stream into batches leaves bit-identical state;
// steady-state calls allocate nothing.
func (s *Stable) AddFloatBatch(indices []uint64, deltas []float64) {
	for lo := 0; lo < len(indices); lo += foldChunk {
		keys := indices[lo:min(lo+foldChunk, len(indices))]
		n := len(keys)
		k1 := growBlock(&s.scratchK1, n)
		for t, i := range keys {
			k1[t] = 2 * i
		}
		blk := growBlock(&s.scratchBlk, evalGroup*n)
		var k2 []uint64
		var blk2 []float64
		if s.p != 1 {
			k2 = growBlock(&s.scratchK2, n)
			for t, i := range keys {
				k2[t] = 2*i + 1
			}
			blk2 = growBlock(&s.scratchBlk2, evalGroup*n)
		}
		for j := 0; j < len(s.counters); j += evalGroup {
			rows := min(evalGroup, len(s.counters)-j)
			a := blk[:rows*n]
			s.seeds.Float64Rows(j, rows, k1, a)
			if s.p == 1 {
				kernel.Cauchy(a, a)
			} else {
				s.seeds.Float64Rows(j, rows, k2, blk2)
				for t, u := range a {
					a[t] = cmsStable(s.p, u, blk2[t])
				}
			}
			for g := 0; g < rows; g += foldGroup {
				foldProducts(s.counters[j+g:j+min(g+foldGroup, rows)], a[g*n:], deltas[lo:lo+n])
			}
		}
	}
}

// foldProducts adds a[t]·d[t] into each counter of the group c for t
// ascending, where the counter's coefficients are stored row after row in a,
// len(d) values each. A group of fewer than foldGroup counters repeats its
// last row; the repeats compute the same sum as that row, so storing them
// back is harmless.
func foldProducts(c []float64, a []float64, d []float64) {
	n, last := len(d), len(c)-1
	r0 := a[:n]
	r1 := a[min(1, last)*n:][:n]
	r2 := a[min(2, last)*n:][:n]
	r3 := a[min(3, last)*n:][:n]
	c0, c1, c2, c3 := c[0], c[min(1, last)], c[min(2, last)], c[min(3, last)]
	for t, dt := range d {
		c0 += r0[t] * dt
		c1 += r1[t] * dt
		c2 += r2[t] * dt
		c3 += r3[t] * dt
	}
	c[min(3, last)], c[min(2, last)], c[min(1, last)], c[0] = c3, c2, c1, c0
}

// Process implements stream.Sink as a batch of one over the sketch's own
// index and delta views. Callers with many updates use ProcessBatch.
func (s *Stable) Process(u stream.Update) {
	s.scratchIdx = append(s.scratchIdx[:0], uint64(u.Index))
	s.scratchDel = append(s.scratchDel[:0], float64(u.Delta))
	s.AddFloatBatch(s.scratchIdx, s.scratchDel)
}

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
