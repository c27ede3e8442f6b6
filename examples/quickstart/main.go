// Quickstart: sample from a vector under insertions AND deletions.
//
// Classical reservoir sampling handles insertion-only streams in O(1) words,
// but breaks as soon as updates can be negative. This walk-through builds a
// turnstile vector with heavy churn and shows that the Lp sampler of
// Theorem 1 still samples from the *final* vector, and the L0 sampler of
// Theorem 2 returns exact values of surviving coordinates.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	streamsample "repro"
)

func main() {
	if !run(os.Stdout) {
		os.Exit(1)
	}
}

// run narrates both samplers to w and reports whether each sampled a
// survivor: the L1 sample one of the three weighted indices, the L0 sample a
// multiple of 97 with its exact value.
func run(w io.Writer) bool {
	const n = 1024

	// --- L1 sampling under churn -----------------------------------------
	s := streamsample.NewLpSampler(1, n, streamsample.WithSeed(42), streamsample.WithEps(0.25))

	// Insert mass everywhere...
	for i := 0; i < n; i++ {
		s.Update(i, 10)
	}
	// ...then delete it again except on three survivors with skewed weights.
	for i := 0; i < n; i++ {
		switch i {
		case 100:
			s.Update(i, 990) // final weight 1000
		case 500:
			s.Update(i, 290) // final weight 300
		case 900:
			s.Update(i, 90) // final weight 100
		default:
			s.Update(i, -10) // final weight 0
		}
	}

	// Across independently seeded sketches, index 100 comes out ~71% of the
	// time, 500 ~21%, 900 ~7% — the L1 distribution of the final vector.
	fmt.Fprintln(w, "L1 sample from the post-churn vector:")
	idx, est, l1ok := s.Sample()
	if l1ok {
		fmt.Fprintf(w, "  sampled index %d, estimated value %.1f\n", idx, est)
		l1ok = idx == 100 || idx == 500 || idx == 900
	} else {
		fmt.Fprintln(w, "  sampler failed this round (probability ≤ δ); re-run with another seed")
	}

	// --- L0 sampling: uniform over survivors, exact values ---------------
	l0 := streamsample.NewL0Sampler(n, streamsample.WithSeed(7))
	for i := 0; i < n; i++ {
		l0.Update(i, int64(i+1))
	}
	for i := 0; i < n; i++ {
		if i%97 != 0 { // keep every 97th coordinate
			l0.Update(i, -int64(i+1))
		}
	}
	idx, val, l0ok := l0.Sample()
	if l0ok {
		fmt.Fprintf(w, "L0 sample: index %d with exact value %d (index %% 97 == 0: %v)\n",
			idx, val, idx%97 == 0)
		l0ok = idx%97 == 0 && val == int64(idx+1)
	}

	// --- Space accounting --------------------------------------------------
	fmt.Fprintf(w, "sketch sizes: L1 sampler %d bits, L0 sampler %d bits (n = %d)\n",
		s.SpaceBits(), l0.SpaceBits(), n)
	fmt.Fprintln(w, "both are polylog(n): the whole point of the paper.")
	return l1ok && l0ok
}
