package main

import (
	"strings"
	"testing"
)

// TestRunSamplesSurvivors: after the churn, the fixed-seed L1 sampler
// returns one of the three surviving indices 100, 500 and 900, and the L0
// sampler a multiple of 97 with its exact value.
func TestRunSamplesSurvivors(t *testing.T) {
	var out strings.Builder
	if !run(&out) {
		t.Fatalf("a sampler missed the post-churn support:\n%s", out.String())
	}
}
