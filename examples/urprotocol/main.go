// Sketches as messages: two machines find where their datasets differ by
// exchanging one L0-sampler state (Proposition 5 of the paper), instead of
// shipping the data.
//
// Alice and Bob each hold a replica of a large boolean table (say, a
// feature-flag or inventory snapshot) that should be identical but has
// drifted. Shipping either table costs n bits; diffing via sketches costs
// O(log² n) bits per round and names an actual drifted key, which is what
// an operator needs to start reconciling.
//
// This example runs the real byte-level handoff rather than a simulation:
// the "network message" is the []byte MarshalBinary writes — config block,
// seed and linear state — and Bob rebuilds the sketch from it with Load.
//
// Run: go run ./examples/urprotocol
package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	streamsample "repro"
)

func main() {
	if !run(os.Stdout) {
		os.Exit(1)
	}
}

// run narrates the handoff to w and reports whether Bob learned a key that
// actually drifted.
func run(w io.Writer) bool {
	const n = 1 << 16 // 65536 keys
	r := rand.New(rand.NewPCG(4, 2))

	// Two replicas, drifted on a handful of keys.
	alice := make([]int, n)
	for i := range alice {
		alice[i] = r.IntN(2)
	}
	bob := append([]int(nil), alice...)
	drifted := map[int]bool{}
	for len(drifted) < 5 {
		k := r.IntN(n)
		if !drifted[k] {
			bob[k] = 1 - bob[k]
			drifted[k] = true
		}
	}
	fmt.Fprintf(w, "replicas of %d keys, drifted keys: %v\n", n, keys(drifted))

	// Shared randomness: the seed travels in the message, so Bob rebuilds the
	// same sampler from the bytes alone.
	const seed = 0xDEADBEEF

	// Alice sketches her replica and serializes it.
	aliceSketch := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed), streamsample.WithDelta(0.05))
	for i, v := range alice {
		if v != 0 {
			aliceSketch.Update(i, int64(v))
		}
	}
	message, err := aliceSketch.MarshalBinary()
	if err != nil {
		fmt.Fprintln(w, "marshal:", err)
		return false
	}
	fmt.Fprintf(w, "Alice -> Bob: %d bytes (vs %d bytes to ship the table)\n",
		len(message), n/8)

	// Bob loads, subtracts his replica, and samples the difference.
	loaded, err := streamsample.Load(message)
	if err != nil {
		fmt.Fprintln(w, "load:", err)
		return false
	}
	bobSketch := loaded.(*streamsample.L0Sampler)
	for i, v := range bob {
		if v != 0 {
			bobSketch.Update(i, -int64(v))
		}
	}
	index, _, ok := bobSketch.Sample()
	if !ok {
		fmt.Fprintln(w, "protocol failed this run (probability ≤ δ = 0.05)")
		return false
	}
	fmt.Fprintf(w, "Bob learns drifted key %d (actually drifted: %v)\n",
		index, drifted[index])
	fmt.Fprintln(w, "re-running with fresh seeds enumerates further drifted keys;")
	fmt.Fprintln(w, "Theorem 6 of the paper proves ~log²(n) bytes is unavoidable.")
	return drifted[index]
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
