// Command bench is the repository's benchmark: seven named workloads over
// the whole stack, from the GF(2^61-1) kernels to cmd/sketchd's HTTP tier.
// It measures every layer from outside, by timing calls into public
// functions; the program under test is unchanged.
//
// Run it from this directory (it is a module of its own):
//
//	go run .                        every workload, end-to-end metrics
//	go run . -trace 1               every workload, per-layer metrics and spans
//	go run . -workload l0_stream    one workload; its result is the last line
//	go run . -agree                 the full set twice, compared against the bounds
//
// The driver's form is
//
//	go run -C bench repro/bench --workload W --seed N --seconds S --trace 0|1
//
// and the last line of standard output is then one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for what the
// workloads and metrics are and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"repro/internal/kernel"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured time the full
// sizes in library.go and serve.go were fitted to. -seconds scales the
// amount of work, never a deadline, so that counts repeat exactly.
const runSeconds = 8

// machine is recorded beside every set of results.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisMachine(procs int) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Kernel: kernel.Active(), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func main() {
	names := flag.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := flag.Uint64("seed", 1, "seed of the benchmark's own input generators")
	seconds := flag.Float64("seconds", runSeconds, "scales the fixed amount of work: full size at the default")
	trace := flag.Int("trace", 0, "1 runs the per-layer pass and writes out/trace.<workload>.jsonl")
	agree := flag.Bool("agree", false, "run the set twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var selected []workload
	if *names == "" {
		selected = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
		selected = append(selected, w)
	}

	// out/ and the sketchd build are relative to this directory.
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the bench directory (go run -C bench repro/bench)")
		os.Exit(2)
	}

	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	e := &env{seed: *seed, scale: *seconds / runSeconds, procs: procs, outDir: "out"}

	// Every return path of a workload reaps its sketchd child; a signal
	// must not outrun that.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveChildren()
		os.Exit(130)
	}()

	var err error
	switch {
	case *agree:
		err = runAgree(e, selected)
	default:
		var reports []report
		reports, err = runSet(e, selected, *trace == 1)
		if werr := writeResults(e, reports, *trace == 1); err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runSet runs each workload's pass, prints its table to standard error and
// its result line to standard output, and returns the reports.
func runSet(e *env, selected []workload, traced bool) ([]report, error) {
	var reports []report
	var wrong []string
	for _, w := range selected {
		var r report
		if traced {
			var err error
			if r, err = runTraced(e, w); err != nil {
				return reports, fmt.Errorf("%s: %w", w.name, err)
			}
		} else {
			o, err := w.run(e)
			if err != nil {
				return reports, fmt.Errorf("%s: %w", w.name, err)
			}
			r = o.endToEnd(w.name)
		}
		if !r.Correct {
			wrong = append(wrong, w.name)
		}
		printReport(r)
		line, err := json.Marshal(r.result)
		if err != nil {
			return reports, err
		}
		fmt.Println(string(line))
		reports = append(reports, r)
	}
	if wrong != nil {
		return reports, fmt.Errorf("state not byte-identical to serial ingestion in %s", strings.Join(wrong, ", "))
	}
	return reports, nil
}

// printReport writes one workload's metrics by name, with units and sample
// counts, for a reader: the declared metrics first, then what is measured
// beside them.
func printReport(r report) {
	fails := r.Counts["fail_answers"]
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d, FAIL answers %d, correct %v\n",
		r.Workload, r.Attempted, r.Failed, fails, r.Correct)
	for _, set := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if c, ok := r.Samples[n]; ok {
				note = fmt.Sprintf("  (%d samples)", c)
			}
			fmt.Fprintf(os.Stderr, "  %-36s %16.6g %-6s%s\n", n, set[n].Value, set[n].Unit, note)
		}
		if len(r.Info) > 0 && len(set) == len(r.Metrics) {
			fmt.Fprintln(os.Stderr, "  measured beside them, not declared:")
		}
	}
}

// writeResults stores the reports with the machine block beside them.
func writeResults(e *env, reports []report, traced bool) error {
	if len(reports) == 0 {
		return nil
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Machine machine  `json:"machine"`
		Seed    uint64   `json:"seed"`
		Scale   float64  `json:"scale"`
		Traced  bool     `json:"traced"`
		Reports []report `json:"reports"`
	}{thisMachine(e.procs), e.seed, e.scale, traced, reports}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := "results.json"
	if traced {
		name = "results.trace.json"
	}
	return os.WriteFile(filepath.Join(e.outDir, name), append(data, '\n'), 0o644)
}
