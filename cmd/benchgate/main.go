// Command benchgate is the CI benchmark-regression gate: it runs (or reads)
// the ingest/query benchmark suite, reduces -count repetitions to best
// ns/op per benchmark, and compares against the committed
// BENCH_BASELINE.json, exiting non-zero on a >threshold geomean
// regression, on any single benchmark exceeding the per-benchmark -cap
// ratio (a targeted hot-path regression must not hide behind a flat
// geomean), or on a benchmark missing from the run.
//
// Modes:
//
//	benchgate                        # run the suite, gate against -baseline
//	benchgate -update                # run the suite, rewrite the baseline
//	benchgate -input bench.txt       # gate a pre-captured `go test -bench` log
//	benchgate -input - < bench.txt   # same, from stdin
//
// The suite is the engine's headline ingest and query benchmarks at the
// repository root (see -bench); -count repetitions with a time-based
// -benchtime keep the numbers stable enough for a 10% gate on a quiet
// machine. Refresh the baseline with `make bench-baseline` on the machine
// class that runs the gate.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"

	"repro/internal/benchgate"
)

// defaultBench anchors each name so satellites like BenchmarkIngestEngineSkew
// never drift into the gate set unrefreshed.
const defaultBench = "^(BenchmarkIngestSerial|BenchmarkIngestSerialBatched|BenchmarkIngestEngine|" +
	"BenchmarkIngestL0Serial|BenchmarkIngestL0Engine|" +
	"BenchmarkIngestLpSerialBatched|BenchmarkIngestDuplicateFinderObserve|BenchmarkQueryL0Sample|" +
	"BenchmarkQueryDuplicatesFind|" +
	"BenchmarkQueryLpSample|BenchmarkQueryLpSampleAll|BenchmarkQueryDuplicateFinderFind|" +
	"BenchmarkServeIngestRaw|BenchmarkServeIngestSketch)$"

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "committed baseline file")
		input        = flag.String("input", "", "pre-captured `go test -bench` output ('-' for stdin); empty runs the suite")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
		threshold    = flag.Float64("threshold", 0.10, "allowed geomean regression (0.10 = +10%)")
		capRatio     = flag.Float64("cap", 1.5, "per-benchmark current/baseline ratio ceiling (0 disables)")
		benchRe      = flag.String("bench", defaultBench, "benchmark regexp passed to go test")
		pkg          = flag.String("pkg", ".", "package holding the suite")
		benchtime    = flag.String("benchtime", "300ms", "go test -benchtime per benchmark")
		count        = flag.Int("count", 3, "go test -count repetitions (best run wins)")
	)
	flag.Parse()

	samples, err := collect(*input, *benchRe, *pkg, *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	best := benchgate.Best(samples)
	if len(best) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q", *benchRe))
	}

	if *update {
		b := benchgate.Baseline{
			Version:    1,
			Go:         runtime.Version(),
			Note:       "best ns/op per benchmark; refresh with `make bench-baseline` on the gate's machine class",
			Benchmarks: best,
		}
		if err := benchgate.WriteBaseline(*baselinePath, b); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s with %d benchmarks\n", *baselinePath, len(best))
		return
	}

	base, err := benchgate.LoadBaseline(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("%w (run `benchgate -update` to create it)", err))
	}
	rep := benchgate.Compare(base.Benchmarks, best, *threshold, *capRatio)
	rep.Render(os.Stdout)
	if !rep.Pass() {
		os.Exit(1)
	}
}

// collect obtains raw benchmark output: from a file, stdin, or by running
// the suite via the go tool (streamed to stderr so CI logs keep the live
// numbers).
func collect(input, benchRe, pkg, benchtime string, count int) (map[string][]float64, error) {
	switch input {
	case "":
		args := []string{"test", "-run", "^$", "-bench", benchRe,
			"-benchtime", benchtime, "-count", fmt.Sprint(count), pkg}
		fmt.Fprintf(os.Stderr, "benchgate: go %v\n", args)
		var buf bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("benchmark run failed: %w", err)
		}
		return benchgate.ParseSamples(&buf)
	case "-":
		return benchgate.ParseSamples(os.Stdin)
	default:
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return benchgate.ParseSamples(f)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
