// Network-flow heavy hitters under inserts and deletes (strict turnstile).
//
// A flow monitor tracks bytes per source as connections open (+bytes) and
// get corrected or rolled back (-bytes). The §4.4 count-sketch heavy-hitters
// structure reports every source holding a φ fraction of the L1 mass — and,
// because it is a linear sketch, deletions are first-class: the report
// reflects the *net* traffic, which no insertion-only counter structure
// (e.g. Misra-Gries) can do.
//
// Run: go run ./examples/netflow
package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"

	streamsample "repro"
)

func main() {
	if !run(os.Stdout) {
		os.Exit(1)
	}
}

// run narrates the flow monitor to w and reports whether the heavy sources
// came out as exactly [111].
func run(w io.Writer) bool {
	const sources = 4096
	const phi = 0.2
	r := rand.New(rand.NewPCG(7, 7))

	hh := streamsample.NewHeavyHitters(1, phi, sources, streamsample.WithSeed(11))

	// Background: every source sends a little.
	truth := make([]int64, sources)
	for i := 0; i < sources; i++ {
		b := int64(1 + r.IntN(20))
		truth[i] += b
		hh.Update(i, b)
	}
	// Two sources spike...
	for _, spike := range []int{111, 2222} {
		truth[spike] += 50_000
		hh.Update(spike, 50_000)
	}
	// ...and one of them turns out to be a misattributed batch that gets
	// rolled back — deletions the sketch must honor.
	truth[2222] -= 50_000
	hh.Update(2222, -50_000)

	var l1 int64
	for _, v := range truth {
		l1 += v
	}
	report := hh.Report()
	sort.Ints(report)

	fmt.Fprintf(w, "net L1 mass: %d bytes over %d sources, φ = %.2f (threshold %d bytes)\n",
		l1, sources, phi, int64(phi*float64(l1)))
	fmt.Fprintf(w, "reported heavy sources: %v\n", report)
	fmt.Fprintln(w, "expected: [111] — source 2222's spike was deleted and must NOT appear")

	good := len(report) == 1 && report[0] == 111
	fmt.Fprintf(w, "report correct: %v   (sketch: %d bits)\n", good, hh.SpaceBits())
	return good
}
