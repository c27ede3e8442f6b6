// Command experiments regenerates the evaluation tables E1-E11 and the
// ablations A1-A3 of internal/experiments, one per claim of the paper.
//
// Usage:
//
//	experiments                # run everything (a few minutes)
//	experiments -run E3        # one experiment
//	experiments -quick         # reduced trial counts (~seconds)
//	experiments -seed 7        # change the reproducibility seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment ID (E1..E11, A1..A3) or 'all'")
	seed := flag.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
	quick := flag.Bool("quick", false, "reduced trial counts")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	if strings.EqualFold(*run, "all") {
		for _, tbl := range experiments.All(cfg) {
			tbl.Render(os.Stdout)
		}
		return
	}
	tbl, ok := experiments.Run(*run, cfg)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
		os.Exit(1)
	}
	tbl.Render(os.Stdout)
}
