// Package heavyhitters implements the Lp heavy hitters upper bound the paper
// discusses in §4.4: a count-sketch with parameter m = Θ(φ^{-p}) plus a
// Θ(log n)-counter Lp norm estimator reports a valid heavy-hitter set — all
// i with |x_i| >= φ‖x‖_p included, no i with |x_i| <= (φ/2)‖x‖_p — in
// O(φ^{-p} log² n) bits, matching the Theorem 9 lower bound.
//
// The §4.4 argument this implements: the count-sketch point error is
// d = Err^m_2(x)/m^{1/2} <= ‖x‖_p / m^{1/p}, so m = (c/φ)^p-ish makes the
// error a small fraction of φ‖x‖_p, and thresholding the estimates at
// 0.75·φ·r̂ with an accurate norm estimate separates the two bands.
package heavyhitters

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/countsketch"
	"repro/internal/norm"
	"repro/internal/stream"
	"repro/internal/vector"
)

// Config parameterizes the sketch.
type Config struct {
	// P is the norm exponent, in (0,2].
	P float64
	// Phi is the heaviness threshold φ ∈ (0,1).
	Phi float64
	// N is the dimension.
	N int
}

// Sketch is the streaming Lp heavy hitters structure.
type Sketch struct {
	cfg Config
	m   int
	cs  *countsketch.Sketch
	nrm norm.Estimator

	// pending holds the updates Process has taken and not yet folded; every
	// read of the count-sketch or norm counters flushes it first.
	pending stream.Pending
}

// New constructs the sketch.
func New(cfg Config, r *rand.Rand) *Sketch {
	if cfg.P <= 0 || cfg.P > 2 {
		panic("heavyhitters: p must be in (0,2]")
	}
	if cfg.Phi <= 0 || cfg.Phi >= 1 {
		panic("heavyhitters: phi must be in (0,1)")
	}
	if cfg.N < 1 {
		panic("heavyhitters: n must be positive")
	}
	z := SizeOf(cfg)
	m := int(z.M)
	var est norm.Estimator
	if cfg.P == 2 {
		// AMS with many groups gives the tight L2 estimate cheaply.
		est = norm.NewAMS(25, 8, r)
	} else {
		est = norm.NewStable(cfg.P, int(z.NormCounters), r)
	}
	return &Sketch{cfg: cfg, m: m, cs: countsketch.New(m, int(z.Rows), r), nrm: est}
}

// Size is the shape New allocates for a config: a count-sketch of parameter
// M and depth Rows, and a norm estimator of NormCounters counters (p < 2).
// The sizes are float64 so that any config, a hostile wire config block
// included, is priced without overflow; New converts them.
type Size struct {
	M, Rows, NormCounters float64
}

// SizeOf derives the shape from cfg (p and φ in range): m = ⌈12·φ^{-p}⌉,
// max(7, ⌈log₂ n⌉+4) rows and 400 counters, because the decision threshold
// needs a (1±0.1)-accurate ‖x‖_p, tighter than Lemma 2's factor 2.
func SizeOf(cfg Config) Size {
	return Size{
		M:            math.Ceil(12 * math.Pow(cfg.Phi, -cfg.P)),
		Rows:         math.Max(7, math.Ceil(math.Log2(float64(cfg.N)))+4),
		NormCounters: 400,
	}
}

// Words prices the shape in 64-bit words: the count-sketch cells plus the
// norm estimator's counters and per-counter rows.
func (z Size) Words() float64 {
	return z.Rows*countsketch.BucketFactor*z.M + 3*z.NormCounters
}

// M returns the count-sketch parameter in use.
func (s *Sketch) M() int { return s.m }

// Process implements stream.Sink: it buffers the update, and a full buffer
// folds through ProcessBatch. Queries, Merge and AppendState flush the buffer
// first, so every observable result is that of an immediate fold.
func (s *Sketch) Process(u stream.Update) { s.pending.Add(u, s) }

// ProcessBatch implements stream.BatchSink: it folds the updates Process
// buffered, then the batch, through the batched count-sketch and
// norm-estimator hot paths.
func (s *Sketch) ProcessBatch(batch []stream.Update) {
	s.pending.Flush(s)
	s.cs.ProcessBatch(batch)
	s.nrm.ProcessBatch(batch)
}

// Merge adds another sketch's state so the result summarizes the sum of the
// two underlying vectors. Both must be same-seed replicas with identical
// configuration.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("heavyhitters: %w", codec.ErrNilMerge)
	}
	if s.cfg != other.cfg || s.m != other.m {
		return fmt.Errorf("heavyhitters: merging sketches of different configurations: %w", codec.ErrConfigMismatch)
	}
	s.pending.Flush(s)
	other.pending.Flush(other)
	if err := s.cs.Merge(other.cs); err != nil {
		return err
	}
	return s.nrm.Merge(other.nrm)
}

// HeavyHitters returns the reported set S: every coordinate whose count-
// sketch estimate reaches 0.75·φ·r̂ where r̂ ≈ ‖x‖_p, in increasing order. It
// runs the count-sketch's blocked threshold scan over scratch the sketch
// owns, so queries (like updates) are single-goroutine.
func (s *Sketch) HeavyHitters() []int {
	s.pending.Flush(s)
	// The norm estimator is centred (Estimate, not UpperEstimate): the
	// threshold argument needs r̂ within ±10% of ‖x‖_p, not a factor-2 band.
	rhat := s.nrm.Estimate(nil)
	if rhat <= 0 {
		// Zero vector (or a cancelled-to-zero sketch): nothing can be
		// heavy. Without this guard the threshold degenerates to 0 and
		// every zero estimate would pass the >= test.
		return nil
	}
	return s.cs.AtLeast(s.cfg.N, 0.75*s.cfg.Phi*rhat)
}

// AppendState writes the count-sketch cells and norm counters into a codec
// encoder, after folding the updates Process buffered.
func (s *Sketch) AppendState(e *codec.Encoder) {
	s.pending.Flush(s)
	s.cs.AppendState(e)
	s.nrm.AppendState(e)
}

// RestoreState replaces the count-sketch cells and norm counters from a
// codec decoder, discarding the updates Process buffered.
func (s *Sketch) RestoreState(d *codec.Decoder) {
	s.pending.Drop()
	s.cs.RestoreState(d)
	s.nrm.RestoreState(d)
}

// Valid checks the §4.4 validity definition of a heavy-hitter set S against
// the exact vector: S must contain every i with |x_i| >= φ‖x‖_p and no i
// with |x_i| <= (φ/2)‖x‖_p. It returns the verdict plus the counts of
// missing-heavy and forbidden-light elements for diagnostics.
func Valid(truth *vector.Dense, p, phi float64, set []int) (ok bool, missing, forbidden int) {
	normP := truth.NormP(p)
	inSet := make(map[int]bool, len(set))
	for _, i := range set {
		inSet[i] = true
	}
	for i := 0; i < truth.N(); i++ {
		a := math.Abs(float64(truth.Get(i)))
		if a >= phi*normP && !inSet[i] {
			missing++
		}
		if a <= phi/2*normP && inSet[i] {
			forbidden++
		}
	}
	return missing == 0 && forbidden == 0, missing, forbidden
}
