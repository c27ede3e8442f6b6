// Command lpsample runs a one-pass Lp sampler over a textual update stream.
//
// Input: one update per line on stdin, "index delta" (0-based index,
// integer delta, negative allowed); blank lines are skipped. Output: the
// sampled index and the ε-relative-error estimate of its value, or FAIL.
//
//	$ printf '0 5\n1 -3\n2 10\n' | lpsample -n 3 -p 1
//	index=2 estimate=10.0
//
// Use -p 0 for the zero relative error L0 sampler (uniform over the support,
// exact values).
//
// Exit status: 0 with a sample, 1 on FAIL, 2 for a bad flag or input line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"

	streamsample "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args, samples the stream on stdin, prints the sample to stdout
// and returns the exit status; usage and input errors go to stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpsample", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "vector dimension (required)")
	p := fs.Float64("p", 1, "sampling exponent p: 0 for L0, (0,2) for Lp")
	eps := fs.Float64("eps", 0.25, "relative error (Lp only), in (0,1)")
	delta := fs.Float64("delta", 0.1, "failure probability, in (0,1)")
	seed := fs.Uint64("seed", 0, "seed (0 = nondeterministic)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "lpsample: "+format+"\n", a...)
		return 2
	}

	// Spec.Build holds the flags to the ranges and word budget Load uses,
	// but lets an ε or δ outside (0,1) fall back to its default: refuse
	// those here instead.
	if *n <= 0 {
		return reject("-n is required and must be positive")
	}
	if !(*eps > 0 && *eps < 1) || !(*delta > 0 && *delta < 1) {
		return reject("-eps %v and -delta %v must lie in (0,1)", *eps, *delta)
	}
	spec := streamsample.Spec{Kind: "lp", N: *n, P: *p, Eps: *eps, Delta: *delta, Seed: *seed}
	if *p == 0 {
		spec.Kind = "l0"
	}
	if spec.Seed == 0 {
		spec.Seed = rand.Uint64()
	}
	s, err := spec.Build()
	if err != nil {
		return reject("-n %d -p %v: %v", *n, *p, err)
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		u, err := parseUpdate(f, *n)
		if err != nil {
			return reject("line %d: %q: %v", line, sc.Text(), err)
		}
		s.Process(u)
	}
	if err := sc.Err(); err != nil {
		return reject("%v", err)
	}

	a := streamsample.Query(s)
	switch {
	case !a.Ok:
		fmt.Fprintln(stdout, "FAIL")
		return 1
	case spec.Kind == "l0":
		fmt.Fprintf(stdout, "index=%d value=%d\n", a.Index, a.Value)
	default:
		fmt.Fprintf(stdout, "index=%d estimate=%.1f\n", a.Index, a.Estimate)
	}
	return 0
}

// parseUpdate reads the fields of one "index delta" line over [0,n).
func parseUpdate(f []string, n int) (streamsample.Update, error) {
	if len(f) != 2 {
		return streamsample.Update{}, fmt.Errorf("want \"index delta\", got %d fields", len(f))
	}
	i, err := strconv.Atoi(f[0])
	if err != nil {
		return streamsample.Update{}, err
	}
	if i < 0 || i >= n {
		return streamsample.Update{}, fmt.Errorf("index %d out of [0,%d)", i, n)
	}
	d, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return streamsample.Update{}, err
	}
	return streamsample.Update{Index: i, Delta: d}, nil
}
