// Package experiments regenerates every evaluation artifact of the
// reproduction. The paper is a theory paper without numbered tables or
// figures; its evaluation is Theorems 1-9, Lemmas 1-7 and Proposition 5.
// Each of those claims maps to one experiment (E1-E11), plus three ablations
// (A1-A3); this package implements them and renders one table per
// experiment, whose title names the claim. cmd/experiments prints the
// tables; the root bench_test.go exposes each as a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/vector"
)

// Config controls an experiment run.
type Config struct {
	// Seed makes runs reproducible.
	Seed uint64
	// Quick shrinks trial counts for use inside benchmarks and smoke tests.
	Quick bool
}

func (c Config) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.Seed^salt, c.Seed*0x9E3779B97F4A7C15+salt))
}

// trials scales a trial count down in Quick mode.
func (c Config) trials(full int) int {
	if c.Quick {
		q := full / 5
		if q < 3 {
			q = 3
		}
		return q
	}
	return full
}

// Table is one rendered experiment.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "paper claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner is one experiment entry point.
type Runner func(Config) Table

// Registry maps experiment IDs to runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1LpSamplerAccuracy},
		{"E2", E2SpaceScaling},
		{"E3", E3L0Sampler},
		{"E4", E4Duplicates},
		{"E5", E5DuplicatesShort},
		{"E6", E6DuplicatesLong},
		{"E7", E7LowerBoundPipeline},
		{"E8", E8HeavyHitters},
		{"E9", E9CountSketchTail},
		{"E10", E10NormEstimation},
		{"E11", E11URAndSparse},
		{"E12", E12Extensions},
		{"A1", A1ScalingIndependence},
		{"A2", A2STest},
		{"A3", A3SketchWidth},
	}
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (Table, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Run(cfg), true
		}
	}
	return Table{}, false
}

// All executes every experiment.
func All(cfg Config) []Table {
	var out []Table
	for _, e := range Registry() {
		out = append(out, e.Run(cfg))
	}
	return out
}

// ---------------------------------------------------------------------------
// small shared helpers
// ---------------------------------------------------------------------------

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}

// quantile returns the q-quantile of v (v is sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	idx := int(q * float64(len(v)-1))
	return v[idx]
}

func log2(n int) float64 { return math.Log2(float64(n)) }

// tvNoiseFloor estimates the total-variation distance a PERFECT sampler
// would show with the same number of samples: the finite-sample noise floor
// that empirical TV columns must be read against.
func tvNoiseFloor(r *rand.Rand, target []float64, samples int) float64 {
	if samples == 0 {
		return 1
	}
	counts := map[int]int{}
	for s := 0; s < samples; s++ {
		u := r.Float64()
		acc := 0.0
		idx := len(target) - 1
		for i, p := range target {
			acc += p
			if u < acc {
				idx = i
				break
			}
		}
		counts[idx]++
	}
	return vector.EmpiricalTV(counts, target, samples)
}
