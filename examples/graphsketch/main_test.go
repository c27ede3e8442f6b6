package main

import (
	"strings"
	"testing"
)

// TestRunFindsGraphConnected: the fixed-seed graph — a spanning path plus
// chords that are inserted and then deleted — comes out of Borůvka over the
// merged L0 sketches as one component.
func TestRunFindsGraphConnected(t *testing.T) {
	var out strings.Builder
	if !run(&out) {
		t.Fatalf("fixed-seed graph not found connected:\n%s", out.String())
	}
}
