package main

import (
	"strings"
	"testing"
)

// TestRunReportsOnlyLiveSpike: of the two spiking sources, the one whose
// spike was rolled back drops out of the report, which comes out as [111].
func TestRunReportsOnlyLiveSpike(t *testing.T) {
	var out strings.Builder
	if !run(&out) {
		t.Fatalf("heavy-hitter report is not [111]:\n%s", out.String())
	}
}
