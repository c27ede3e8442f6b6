// Command dupfind finds a duplicated letter in a stream of items over the
// alphabet {0, ..., n-1} using the Theorem 3 sketch (O(log² n) bits).
//
// Input: one item per line on stdin; blank lines are skipped. The classical
// guarantee covers streams of length n+1 (pigeonhole: a duplicate always
// exists); longer streams work too, shorter ones may legitimately FAIL when
// no duplicate exists.
//
//	$ seq 0 99 | { cat; echo 55; } | dupfind -n 100
//	duplicate=55
//
// Exit status: 0 with a duplicate, 1 on FAIL, 2 for a bad flag or input line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	streamsample "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args, feeds the items on stdin to a duplicate finder, prints
// its answer to stdout and returns the exit status; usage and input errors
// go to stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dupfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "alphabet size (required)")
	delta := fs.Float64("delta", 0.05, "failure probability, in (0,1)")
	seed := fs.Uint64("seed", 0, "seed (0 = nondeterministic)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dupfind: "+format+"\n", a...)
		return 2
	}
	if *n <= 0 {
		return reject("-n is required and must be positive")
	}
	if !(*delta > 0 && *delta < 1) {
		return reject("-delta %v must lie in (0,1)", *delta)
	}
	opts := []streamsample.Option{streamsample.WithDelta(*delta)}
	if *seed != 0 {
		opts = append(opts, streamsample.WithSeed(*seed))
	}
	f := streamsample.NewDuplicateFinder(*n, opts...)

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		item, err := parseItem(fields, *n)
		if err != nil {
			return reject("line %d: %q: %v", line, sc.Text(), err)
		}
		f.Observe(item)
	}
	if err := sc.Err(); err != nil {
		return reject("%v", err)
	}
	if letter, ok := f.Find(); ok {
		fmt.Fprintf(stdout, "duplicate=%d\n", letter)
		return 0
	}
	fmt.Fprintln(stdout, "FAIL")
	return 1
}

// parseItem reads the fields of one item line over [0,n).
func parseItem(f []string, n int) (int, error) {
	if len(f) != 1 {
		return 0, fmt.Errorf("want one item, got %d fields", len(f))
	}
	item, err := strconv.Atoi(f[0])
	if err != nil {
		return 0, err
	}
	if item < 0 || item >= n {
		return 0, fmt.Errorf("item %d out of [0,%d)", item, n)
	}
	return item, nil
}
