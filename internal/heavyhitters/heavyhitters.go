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
	// Rows overrides the count-sketch depth (default O(log n)).
	Rows int
	// MFactor scales m = ceil(MFactor/φ)^p-style sizing (default 12).
	MFactor float64
	// NormCounters sizes the norm estimator; the decision threshold needs a
	// (1±0.1)-accurate ‖x‖_p, tighter than Lemma 2's factor 2 (default 400).
	NormCounters int
}

// Sketch is the streaming Lp heavy hitters structure.
type Sketch struct {
	cfg Config
	m   int
	cs  *countsketch.Sketch
	nrm norm.Estimator
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
	mf := cfg.MFactor
	if mf <= 0 {
		mf = 12
	}
	m := int(math.Ceil(mf * math.Pow(cfg.Phi, -cfg.P)))
	rows := cfg.Rows
	if rows <= 0 {
		rows = int(math.Ceil(math.Log2(float64(cfg.N)))) + 4
		if rows < 7 {
			rows = 7
		}
	}
	nc := cfg.NormCounters
	if nc <= 0 {
		nc = 400
	}
	var est norm.Estimator
	if cfg.P == 2 {
		// AMS with many groups gives the tight L2 estimate cheaply.
		est = norm.NewAMS(25, 8, r)
	} else {
		est = norm.NewStable(cfg.P, nc, r)
	}
	return &Sketch{cfg: cfg, m: m, cs: countsketch.New(m, rows, r), nrm: est}
}

// M returns the count-sketch parameter in use.
func (s *Sketch) M() int { return s.m }

// Process implements stream.Sink.
func (s *Sketch) Process(u stream.Update) {
	s.cs.Process(u)
	s.nrm.Process(u)
}

// ProcessBatch implements stream.BatchSink, delegating to the batched count-
// sketch and norm-estimator hot paths.
func (s *Sketch) ProcessBatch(batch []stream.Update) {
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

// SpaceBits reports count-sketch plus norm estimator state — the
// O(φ^{-p} log² n) bits of §4.4.
func (s *Sketch) SpaceBits() int64 { return s.cs.SpaceBits() + s.nrm.SpaceBits() }

// StateBits reports counters only — the Theorem 9 protocol message.
func (s *Sketch) StateBits() int64 { return s.cs.StateBits() + s.nrm.StateBits() }

// AppendState writes the count-sketch cells and norm counters into a codec
// encoder.
func (s *Sketch) AppendState(e *codec.Encoder) {
	s.cs.AppendState(e)
	s.nrm.AppendState(e)
}

// RestoreState replaces the count-sketch cells and norm counters from a
// codec decoder.
func (s *Sketch) RestoreState(d *codec.Decoder) {
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
