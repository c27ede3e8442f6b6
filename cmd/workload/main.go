// Command workload generates the benchmark workloads of the experiments as
// text streams, for piping into cmd/lpsample and cmd/dupfind or into other
// systems under comparison.
//
//	workload -kind turnstile -n 1000 -len 5000      # "index delta" lines
//	workload -kind zipf -n 1000 -alpha 1.1          # skewed signed vector
//	workload -kind sparse -n 1000 -support 20       # exact support with churn
//	workload -kind strict -n 1000 -len 5000         # strict turnstile
//	workload -kind duplicates -n 1000               # n+1 items, one per line
//
// Update kinds print "index delta" lines; the duplicates kind prints one
// item per line (feed to dupfind). The same flags print the same stream.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"repro/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, writes the stream they name to stdout and returns the
// exit status: 0, 1 when stdout fails, or 2 for a usage error; errors are
// reported on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "turnstile", "turnstile | zipf | sparse | strict | duplicates")
	n := fs.Int("n", 1024, "vector dimension / alphabet size")
	length := fs.Int("len", 4096, "stream length (turnstile, strict)")
	maxAbs := fs.Int64("max", 100, "maximum update magnitude")
	alpha := fs.Float64("alpha", 1.0, "zipf exponent")
	support := fs.Int("support", 16, "support size (sparse)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	r := rand.New(rand.NewPCG(*seed, *seed^0xD1B54A32D192ED03))
	w := bufio.NewWriter(stdout)
	var st stream.Stream
	switch *kind {
	case "turnstile":
		st = stream.RandomTurnstile(*n, *length, *maxAbs, r)
	case "zipf":
		st = stream.ZipfSigned(*n, *alpha, *maxAbs, r)
	case "sparse":
		st = stream.SparseVector(*n, *support, *maxAbs, r)
	case "strict":
		st = stream.StrictTurnstile(*n, *length, *maxAbs, r)
	case "duplicates":
		for _, it := range stream.DuplicateItems(*n, -1, r) {
			fmt.Fprintln(w, it)
		}
	default:
		fmt.Fprintf(stderr, "workload: unknown kind %q\n", *kind)
		return 2
	}
	for _, u := range st {
		fmt.Fprintf(w, "%d %d\n", u.Index, u.Delta)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "workload: %v\n", err)
		return 1
	}
	return 0
}
