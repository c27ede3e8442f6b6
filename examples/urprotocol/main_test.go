package main

import (
	"strings"
	"testing"
)

// TestRunNamesDriftedKey: Bob, holding only Alice's serialized sketch and
// his own replica, samples a key on which the two replicas really differ.
func TestRunNamesDriftedKey(t *testing.T) {
	var out strings.Builder
	if !run(&out) {
		t.Fatalf("Bob did not learn a drifted key:\n%s", out.String())
	}
}
