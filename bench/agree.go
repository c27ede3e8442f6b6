package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declared is the part of ../BENCHMARK.json the harness reads back.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declaredMetric             `json:"end_to_end"`
	PerLayer  []declaredMetric             `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared() (*declared, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// worseBy is the share of first by which second is worse, negative when it
// is better.
func (m declaredMetric) worseBy(first, second float64) float64 {
	if m.Better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

// runAgree runs the selected workloads twice and prints, per workload and
// end-to-end metric, both values, their ratio and the bound. It fails when a
// second value is worse than the first by more than the bound, or a count
// that must repeat does not.
func runAgree(e *env, selected []workload) error {
	d, err := readDeclared()
	if err != nil {
		return err
	}
	first, err := runSet(e, selected, false)
	if err != nil {
		return err
	}
	second, err := runSet(e, selected, false)
	if err != nil {
		return err
	}
	disagreed := 0
	fmt.Printf("%-13s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for i, a := range first {
		b := second[i]
		for _, m := range d.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			verdict := ""
			if m.worseBy(va, vb) > m.Bound {
				verdict = "  DISAGREE"
				disagreed++
			}
			fmt.Printf("%-13s %-18s %14.6g %14.6g %8.4f %7.3f%s\n", a.Workload, m.Name, va, vb, vb/va, m.Bound, verdict)
		}
		for name, ca := range a.Counts {
			if cb := b.Counts[name]; ca != cb {
				fmt.Printf("%-13s count %-12s %14d %14d  DISAGREE\n", a.Workload, name, ca, cb)
				disagreed++
			}
		}
	}
	if disagreed > 0 {
		return fmt.Errorf("%d comparisons disagree beyond their bounds", disagreed)
	}
	return nil
}
