// Package countsketch implements the count-sketch of Charikar, Chen and
// Farach-Colton exactly as defined in §2 of the paper: for parameter m it
// keeps l = O(log n) rows of 6m buckets; row j stores
//
//	y_{k,j} = sum_{i: h_j(i)=k} g_j(i) * x_i
//
// with pairwise independent h_j: [n] -> [6m] and g_j: [n] -> {-1,+1}, and the
// estimate of x_i is the median over rows of g_j(i) * y_{h_j(i),j}.
//
// Lemma 1 (the guarantee the Lp sampler of Figure 1 builds on): with high
// probability |x_i - x*_i| <= Err^m_2(x)/sqrt(m) for all i, and the best
// m-sparse approximation xhat of the output satisfies
// Err^m_2(x) <= ||x - xhat||_2 <= 10*Err^m_2(x).
//
// The sketch stores float64 cells because the Lp sampler feeds it the
// randomly scaled vector z (z_i = x_i / t_i^{1/p}). Each cell is one 64-bit
// word on the wire, standing in for the paper's O(log n)-bit counter after
// its (omitted) discretization step.
//
// The (h_j, g_j) pairs live in two flat hash.FlatFamily structures, and the
// batched hot paths drive the fused hash.BucketSignBatch kernel row-major
// with per-sketch scratch buffers: steady-state ProcessBatch/AddBatch calls
// allocate nothing.
//
// The query side (decode.go) is blocked the same way: Decode, Top and AtLeast
// walk [0, n) in blocks of 512 consecutive keys, run each row's fused kernel
// over the whole block, and gather sign·cell into a block×rows matrix, so a
// key's median reads one contiguous run. Top keeps a bounded m-entry heap and,
// once it is full, rejects a key before its median is taken by counting how
// many of its row values reach the heap's minimum magnitude — an exact rule,
// so the entries are those of a full decode and sort. Estimate(i) stays the
// scalar per-key path, and the reference the blocked scan is tested against.
package countsketch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/kernel"
	"repro/internal/stream"
)

// BucketFactor is the paper's constant: a sketch of parameter m uses 6m
// buckets per row.
const BucketFactor = 6

// Sketch is a count-sketch instance.
type Sketch struct {
	m       int
	rows    int
	buckets uint64
	h       *hash.FlatFamily
	g       *hash.FlatFamily
	cells   [][]float64

	// Batch scratch, grown on demand and reused forever after: key and delta
	// views of the incoming batch, the per-row bucket/sign kernel outputs,
	// and the signed deltas fed to the scatter fold. Not goroutine-safe —
	// same contract as the cells themselves.
	scratchIdx []uint64
	scratchDel []float64
	scratchBkt []uint64
	scratchSgn []float64
	scratchSD  []float64

	// Block buffers of Decode/Top/AtLeast (see decode.go), same contract.
	decode Scratch
}

// New creates a count-sketch with parameter m and the given number of rows
// (the paper's l = O(log n); callers pass c*log2(n)).
func New(m, rows int, r *rand.Rand) *Sketch {
	if m < 1 {
		m = 1
	}
	if rows < 1 {
		rows = 1
	}
	s := &Sketch{
		m:       m,
		rows:    rows,
		buckets: uint64(BucketFactor * m),
		h:       hash.NewFlatFamily(rows, 2, r),
		g:       hash.NewFlatFamily(rows, 2, r),
		cells:   make([][]float64, rows),
	}
	for j := range s.cells {
		s.cells[j] = make([]float64, s.buckets)
	}
	return s
}

// M returns the sketch parameter m.
func (s *Sketch) M() int { return s.m }

// Rows returns the number of rows l.
func (s *Sketch) Rows() int { return s.rows }

// Add applies the update x_i += delta for real-valued delta.
func (s *Sketch) Add(i uint64, delta float64) {
	for j := 0; j < s.rows; j++ {
		k := s.h.Bucket(j, i, s.buckets)
		s.cells[j][k] += float64(s.g.Sign(j, i)) * delta
	}
}

// Process implements stream.Sink for integer turnstile updates.
func (s *Sketch) Process(u stream.Update) {
	s.Add(uint64(u.Index), float64(u.Delta))
}

// growKernel ensures the per-row kernel outputs can hold n entries.
func (s *Sketch) growKernel(n int) {
	if cap(s.scratchBkt) < n {
		s.scratchBkt = make([]uint64, n)
		s.scratchSgn = make([]float64, n)
		s.scratchSD = make([]float64, n)
	}
}

// ProcessBatch implements stream.BatchSink: the batch is split once into key
// and delta views, then delivered row-major through the fused kernel. State
// after the call is identical to feeding the updates one Process call at a
// time (per-cell accumulation order is preserved).
func (s *Sketch) ProcessBatch(batch []stream.Update) {
	idx := stream.Keys(batch, &s.scratchIdx)
	del := stream.FloatDeltas(batch, &s.scratchDel)
	s.growKernel(len(batch))
	s.addBatch(idx, del)
}

// AddBatch is the real-valued batched hot path (the Lp sampler feeds the
// scaled vector z through it): indices[t] receives deltas[t], row-major.
func (s *Sketch) AddBatch(indices []uint64, deltas []float64) {
	s.growKernel(len(indices))
	s.addBatch(indices, deltas)
}

// addBatch runs the fused bucket+sign kernel once per row, pre-multiplies the
// signed deltas (a dense vectorizable pass), and folds them through the
// kernel.ScatterAdd primitive: all hash coefficients stay in registers across
// the batch, the kernel outputs stay L1-resident, the scatter fold prefetches
// the random cell lines ahead of the adds, and nothing allocates. Per-cell
// accumulation order is batch order (the ScatterAdd contract), so the state
// is bit-identical to the serial Add path.
func (s *Sketch) addBatch(idx []uint64, del []float64) {
	n := len(idx)
	bkt, sgn, sd := s.scratchBkt[:n], s.scratchSgn[:n], s.scratchSD[:n]
	for j := 0; j < s.rows; j++ {
		hash.BucketSignBatch(s.h, s.g, j, s.buckets, idx, bkt, sgn)
		for t := range sgn {
			sd[t] = sgn[t] * del[t]
		}
		kernel.ScatterAddF64(nil, s.cells[j], bkt, sd)
	}
}

// Merge adds another sketch's cells into this one. By linearity the result
// summarizes the sum of the two underlying vectors. Both sketches must be
// same-seed replicas (identical shape and hash functions); a mismatch is
// reported as an error and leaves the receiver untouched.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("countsketch: %w", codec.ErrNilMerge)
	}
	if s.m != other.m || s.rows != other.rows || s.buckets != other.buckets {
		return fmt.Errorf("countsketch: merging sketches of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !s.h.Equal(other.h) || !s.g.Equal(other.g) {
		return fmt.Errorf("countsketch: %w", codec.ErrSeedMismatch)
	}
	for j := range s.cells {
		row, orow := s.cells[j], other.cells[j]
		for k := range row {
			row[k] += orow[k]
		}
	}
	return nil
}

// Estimate returns x*_i, the median-of-rows estimate of coordinate i. It is
// allocation-free for sketches up to estimateStackRows rows (every practical
// l = O(log n)), and touches no shared mutable state, so concurrent Estimate
// calls against a quiescent sketch remain safe.
func (s *Sketch) Estimate(i uint64) float64 {
	var buf [estimateStackRows]float64
	ests := buf[:0]
	if s.rows > len(buf) {
		ests = make([]float64, 0, s.rows)
	}
	for j := 0; j < s.rows; j++ {
		k := s.h.Bucket(j, i, s.buckets)
		ests = append(ests, float64(s.g.Sign(j, i))*s.cells[j][k])
	}
	return median(ests)
}

// estimateStackRows bounds the stack-resident estimate buffer; rows is
// l = O(log n), so 64 covers any input a 64-bit index can address.
const estimateStackRows = 64

// AppendState writes the cell contents row-major into a codec encoder.
func (s *Sketch) AppendState(e *codec.Encoder) {
	for _, row := range s.cells {
		for _, c := range row {
			e.F64(c)
		}
	}
}

// RestoreState replaces the cell contents from a codec decoder. The
// receiver keeps its shape and hash functions; only the linear state moves.
func (s *Sketch) RestoreState(d *codec.Decoder) {
	for _, row := range s.cells {
		for k := range row {
			row[k] = d.F64()
		}
	}
}

// median sorts v in place (insertion sort: v is O(log n) long and must not
// escape — sort.Float64s would box it) and returns the median.
func median(v []float64) float64 {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
