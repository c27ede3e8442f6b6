package streamsample

import (
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/moments"
	"repro/internal/stream"
)

// TwoPassL0Sampler is the two-pass variant of the L0 sampler from the
// paper's appendix remark: a first pass estimates the support size, letting
// the second pass maintain a single exact-recovery level instead of ⌊log n⌋
// of them. Use it when the stream can be replayed (stored logs, two-phase
// pipelines) and space matters more than pass count.
//
// Protocol: feed the whole stream, call EndPass1, feed the whole stream
// again, then Sample. A sampler serialized between the passes resumes
// exactly where it stopped.
//
// Merge adds another sampler's state for the current pass: shard the
// stream, merge the pass-1 replicas, EndPass1 everywhere with the merged
// estimate's level, then shard pass 2 the same way. Both samplers must be
// same-seed replicas in the same pass (pass-2 merges additionally require
// an identical committed level).
type TwoPassL0Sampler struct{ base[*core.TwoPassL0Sampler] }

var _ Sketch = (*TwoPassL0Sampler)(nil)

// NewTwoPassL0Sampler creates the sampler for dimension n.
func NewTwoPassL0Sampler(n int, opts ...Option) *TwoPassL0Sampler {
	return construct(newConfig(codec.KindTwoPassL0Sampler, n, opts)).(*TwoPassL0Sampler)
}

// Update applies x[i] += delta in the current pass.
func (s *TwoPassL0Sampler) Update(i int, delta int64) {
	s.inner.Process(stream.Update{Index: i, Delta: delta})
}

// EndPass1 commits the subsampling level; call exactly once between the two
// replays of the stream.
func (s *TwoPassL0Sampler) EndPass1() { s.inner.EndPass1() }

// Sample returns a uniform support element with its exact value.
func (s *TwoPassL0Sampler) Sample() (index int, value int64, ok bool) {
	out, ok := s.inner.Sample()
	return out.Index, int64(out.Estimate), ok
}

// FpEstimator estimates the frequency moment F_p = Σ|x_i|^p for p > 2 by
// importance sampling over L1 samples — the [23] application the paper's
// samplers were designed to speed up.
type FpEstimator struct{ base[*moments.FpEstimator] }

var _ Sketch = (*FpEstimator)(nil)

// NewFpEstimator creates an estimator for exponent p > 2 over dimension n,
// with the given number of independent samplers (the accuracy knob; a few
// dozen give constant-factor estimates on moderately skewed data).
func NewFpEstimator(p float64, n, samples int, opts ...Option) *FpEstimator {
	c := newConfig(codec.KindFpEstimator, n, opts)
	c.p = p
	c.samples = uint64(max(samples, 1)) // mirror moments.NewFp, keeping the recorded config canonical
	return construct(c).(*FpEstimator)
}

// Update applies x[i] += delta.
func (e *FpEstimator) Update(i int, delta int64) {
	e.inner.Process(stream.Update{Index: i, Delta: delta})
}

// Estimate returns the F_p estimate; ok is false when the vector is zero or
// every sampler failed.
func (e *FpEstimator) Estimate() (float64, bool) { return e.inner.Estimate() }
