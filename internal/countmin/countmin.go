// Package countmin implements the count-min sketch and the count-median
// estimator of Cormode and Muthukrishnan ("An improved data stream summary:
// the count-min sketch and its applications", J. Algorithms 2005) — reference
// [8] of the paper. §4.4 cites count-median as the classical O(φ^{-1} log² n)
// L1 heavy-hitters algorithm that the paper's lower bound (Theorem 9) shows
// optimal; we use it as the baseline against the count-sketch-based Lp heavy
// hitters.
//
// Count-min answers point queries with one-sided error in the strict
// turnstile model: min_j cells[j][h_j(i)] >= x_i always, and exceeds x_i by
// more than eps*||x||_1 with probability at most delta for width e/eps and
// depth ln(1/delta). Count-median replaces min with median and works in the
// general update model (two-sided error).
package countmin

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/kernel"
	"repro/internal/stream"
)

// Sketch is a count-min / count-median structure (the cells are shared; the
// two estimators read them differently).
type Sketch struct {
	width uint64
	depth int
	h     *hash.FlatFamily
	cells [][]int64

	// Batch scratch (key/delta views of the batch, per-row kernel buckets),
	// grown on demand: steady-state ProcessBatch calls allocate nothing.
	scratchIdx []uint64
	scratchDel []int64
	scratchBkt []uint64
}

// New creates a sketch with the given width (buckets per row) and depth
// (rows). Width Theta(1/eps) and depth Theta(log 1/delta) give the classical
// guarantees.
func New(width, depth int, r *rand.Rand) *Sketch {
	if width < 1 {
		width = 1
	}
	if depth < 1 {
		depth = 1
	}
	s := &Sketch{
		width: uint64(width),
		depth: depth,
		h:     hash.NewFlatFamily(depth, 2, r),
		cells: make([][]int64, depth),
	}
	for j := range s.cells {
		s.cells[j] = make([]int64, width)
	}
	return s
}

// NewForGuarantee sizes the sketch for point-query error eps*||x||_1 with
// failure probability delta.
func NewForGuarantee(eps, delta float64, r *rand.Rand) *Sketch {
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return New(width, depth, r)
}

// Add applies x_i += delta.
func (s *Sketch) Add(i uint64, delta int64) {
	for j := 0; j < s.depth; j++ {
		s.cells[j][s.h.Bucket(j, i, s.width)] += delta
	}
}

// Process implements stream.Sink.
func (s *Sketch) Process(u stream.Update) { s.Add(uint64(u.Index), u.Delta) }

// ProcessBatch implements stream.BatchSink: the batch's keys are extracted
// once, then each row runs the flat BucketBatch kernel (coefficients in
// registers, Lemire reduction, no divide) and folds the deltas into its
// cells through the kernel.ScatterAdd primitive (prefetched, batch-order).
// Equivalent to repeated Process calls; steady-state calls allocate nothing.
func (s *Sketch) ProcessBatch(batch []stream.Update) {
	n := len(batch)
	idx := stream.Keys(batch, &s.scratchIdx)
	del := stream.Int64Deltas(batch, &s.scratchDel)
	if cap(s.scratchBkt) < n {
		s.scratchBkt = make([]uint64, n)
	}
	bkt := s.scratchBkt[:n]
	for j := 0; j < s.depth; j++ {
		s.h.BucketBatch(j, s.width, idx, bkt)
		kernel.ScatterAddI64(nil, s.cells[j], bkt, del)
	}
}

// Merge adds another sketch's cells into this one (sketch linearity). Both
// must be same-seed replicas of identical shape; a mismatch is reported as an
// error and leaves the receiver untouched.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("countmin: %w", codec.ErrNilMerge)
	}
	if s.width != other.width || s.depth != other.depth {
		return fmt.Errorf("countmin: merging sketches of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !s.h.Equal(other.h) {
		return fmt.Errorf("countmin: %w", codec.ErrSeedMismatch)
	}
	for j := range s.cells {
		row, orow := s.cells[j], other.cells[j]
		for k := range row {
			row[k] += orow[k]
		}
	}
	return nil
}

// QueryMin returns the count-min point estimate: an upper bound on x_i in the
// strict turnstile model.
func (s *Sketch) QueryMin(i uint64) int64 {
	min := int64(math.MaxInt64)
	for j := 0; j < s.depth; j++ {
		if c := s.cells[j][s.h.Bucket(j, i, s.width)]; c < min {
			min = c
		}
	}
	return min
}

// QueryMedian returns the count-median point estimate, valid for general
// updates (two-sided error eps*||x||_1 w.h.p. in depth).
func (s *Sketch) QueryMedian(i uint64) int64 {
	ests := make([]int64, s.depth)
	for j := 0; j < s.depth; j++ {
		ests[j] = s.cells[j][s.h.Bucket(j, i, s.width)]
	}
	sort.Slice(ests, func(a, b int) bool { return ests[a] < ests[b] })
	if s.depth%2 == 1 {
		return ests[s.depth/2]
	}
	return (ests[s.depth/2-1] + ests[s.depth/2]) / 2
}

// HeavyHitters returns every i in [n] whose count-min estimate reaches
// phi*||x||_1 — in the strict turnstile model this set contains all true
// phi-heavy hitters (one-sided error guarantees no false negatives).
func (s *Sketch) HeavyHitters(n int, phi float64, l1 int64) []int {
	thresh := int64(math.Ceil(phi * float64(l1)))
	var out []int
	for i := 0; i < n; i++ {
		if s.QueryMin(uint64(i)) >= thresh {
			out = append(out, i)
		}
	}
	return out
}

// L1 returns the exact ||x||_1-preserving row sum in the strict turnstile
// model (every row sums to sum_i x_i; nonnegative final vectors make this
// ||x||_1).
func (s *Sketch) L1() int64 {
	var sum int64
	for _, c := range s.cells[0] {
		sum += c
	}
	return sum
}

// SpaceBits reports cells plus seeds at 64 bits per word.
func (s *Sketch) SpaceBits() int64 {
	return int64(s.depth)*int64(s.width)*64 + s.h.SpaceBits()
}

// AppendState writes the cell contents row-major into a codec encoder.
func (s *Sketch) AppendState(e *codec.Encoder) {
	for _, row := range s.cells {
		for _, c := range row {
			e.I64(c)
		}
	}
}

// RestoreState replaces the cell contents from a codec decoder, keeping the
// receiver's shape and hash functions.
func (s *Sketch) RestoreState(d *codec.Decoder) {
	for _, row := range s.cells {
		for k := range row {
			row[k] = d.I64()
		}
	}
}
