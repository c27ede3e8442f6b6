// Package moments estimates frequency moments F_p = Σ|x_i|^p for p > 2 from
// Lp samples — one of the applications Monemizadeh and Woodruff [23]
// introduced Lp samplers for, which the paper inherits ("our Lp samplers
// work and often give better space performance for all applications listed
// in [23]", §1).
//
// The estimator is the classical importance-sampling identity: for a sample
// i drawn from the L1 distribution (P[i] = |x_i|/‖x‖₁),
//
//	E[|x_i|^{p-1}] = Σ_i (|x_i|/‖x‖₁)·|x_i|^{p-1} = F_p / ‖x‖₁,
//
// so F_p ≈ ‖x‖₁ · mean over samples of |x̂_i|^{p-1}, where both the sample
// i and the value estimate x̂_i come straight out of Theorem 1's sampler
// (footnote 1: the sampler yields an ε-relative-error estimate of x_i
// itself, which is exactly what this application consumes). ‖x‖₁ comes from
// the Lemma 2 p-stable estimator.
//
// The number of samples needed for a (1±ε) estimate grows with the skew
// (Θ(n^{1-2/p}) in the worst case, as for all sampling-based F_p
// algorithms); this package exposes the sample count as a knob and the
// experiments use planted workloads with moderate skew.
package moments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/stream"
)

// FpEstimator estimates F_p for p > 2 over a turnstile stream.
type FpEstimator struct {
	p        float64
	samplers []*core.LpSampler
	l1       *norm.Stable

	// pending holds the updates Process has taken and not yet folded; every
	// read of the samplers or the L1 counters flushes it first.
	pending stream.Pending
}

// NewFp constructs an estimator with the given number of independent L1
// samplers (the accuracy knob). Panics unless p > 2.
func NewFp(p float64, n, samples int, r *rand.Rand) *FpEstimator {
	if p <= 2 {
		panic("moments: FpEstimator requires p > 2; use norm estimators below 2")
	}
	if samples < 1 {
		samples = 1
	}
	e := &FpEstimator{
		p:        p,
		samplers: make([]*core.LpSampler, samples),
		l1:       norm.NewStable(1, 120, r),
	}
	for i := range e.samplers {
		e.samplers[i] = core.NewLpSampler(SamplerConfig(n), r)
	}
	return e
}

// SamplerConfig is the L1 sampler an estimator over dimension n runs once per
// sample: ε = δ = 1/4, sized by core.SizeLp.
func SamplerConfig(n int) core.LpConfig {
	return core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.25}
}

// Process implements stream.Sink: it buffers the update, and a full buffer
// folds through ProcessBatch. Estimate, Merge and AppendState flush the
// buffer first, so every observable result is that of an immediate fold.
func (e *FpEstimator) Process(u stream.Update) { e.pending.Add(u, e) }

// ProcessBatch implements stream.BatchSink: after the updates Process
// buffered, the L1 norm sketch and every sampler consume the batch through
// their batched hot paths.
func (e *FpEstimator) ProcessBatch(batch []stream.Update) {
	e.pending.Flush(e)
	e.l1.ProcessBatch(batch)
	for _, s := range e.samplers {
		s.ProcessBatch(batch)
	}
}

// Merge adds another estimator's state so the result summarizes the sum of
// the two underlying vectors (sketch linearity). Both must be same-seed
// replicas with identical p and sampler counts; validation happens inside
// the component merges, before their mutations.
func (e *FpEstimator) Merge(other *FpEstimator) error {
	if other == nil {
		return fmt.Errorf("moments: %w", codec.ErrNilMerge)
	}
	if e.p != other.p || len(e.samplers) != len(other.samplers) {
		return fmt.Errorf("moments: merging Fp estimators of different configurations: %w", codec.ErrConfigMismatch)
	}
	e.pending.Flush(e)
	other.pending.Flush(other)
	for i, s := range e.samplers {
		if err := s.Merge(other.samplers[i]); err != nil {
			return err
		}
	}
	return e.l1.Merge(other.l1)
}

// AppendState writes every sampler's linear state and the L1 counters into
// a codec encoder, after folding the updates Process buffered.
func (e *FpEstimator) AppendState(enc *codec.Encoder) {
	e.pending.Flush(e)
	for _, s := range e.samplers {
		s.AppendState(enc)
	}
	e.l1.AppendState(enc)
}

// RestoreState replaces every sampler's linear state and the L1 counters
// from a codec decoder, discarding the updates Process buffered.
func (e *FpEstimator) RestoreState(d *codec.Decoder) {
	e.pending.Drop()
	for _, s := range e.samplers {
		s.RestoreState(d)
	}
	e.l1.RestoreState(d)
}

// Estimate returns the F_p estimate. ok is false when no sampler produced a
// sample (zero vector, or all repetitions failed).
func (e *FpEstimator) Estimate() (float64, bool) {
	e.pending.Flush(e)
	l1 := e.l1.Estimate(nil)
	if l1 == 0 {
		return 0, false
	}
	var sum float64
	var count int
	for _, s := range e.samplers {
		out, ok := s.Sample()
		if !ok {
			continue
		}
		sum += math.Pow(math.Abs(out.Estimate), e.p-1)
		count++
	}
	if count == 0 {
		return 0, false
	}
	return l1 * sum / float64(count), true
}
