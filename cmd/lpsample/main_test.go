package main

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// lpsample runs the command on args and stdin and returns its exit status,
// stdout and stderr.
func lpsample(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSamples: the documented invocation samples one of the nonzero
// coordinates with its value as the estimate, the L0 sampler (-p 0)
// returns a survivor of churn with its exact value, and a vector that
// cancels to zero FAILs with exit status 1.
func TestSamples(t *testing.T) {
	const updates = "0 5\n1 -3\n\n2 10\n"
	want := map[string]bool{"index=0 estimate=5.0\n": true, "index=1 estimate=-3.0\n": true, "index=2 estimate=10.0\n": true}
	for seed := 1; seed <= 5; seed++ {
		code, out, errOut := lpsample(t, updates, "-n", "3", "-p", "1", "-seed", strconv.Itoa(seed))
		if code != 0 || !want[out] {
			t.Fatalf("seed %d: exit %d, stdout %q, stderr %q", seed, code, out, errOut)
		}
	}

	code, out, errOut := lpsample(t, "0 5\n2 -4\n1 1\n0 -5\n1 -1\n", "-n", "3", "-p", "0", "-seed", "9")
	if code != 0 || out != "index=2 value=-4\n" {
		t.Fatalf("L0: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	code, out, _ = lpsample(t, "1 7\n1 -7\n", "-n", "3", "-seed", "9")
	if code != 1 || out != "FAIL\n" {
		t.Fatalf("zero vector: exit %d, stdout %q, want 1 and FAIL", code, out)
	}
}

// TestRejectsMalformedLines: a line is exactly two base-10 integers with an
// index in [0,n); anything else exits 2 and names the line, instead of
// ingesting the prefix a scanf-style reader would accept.
func TestRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{"0 5.7", "0 5 junk", "0", "x 1", "0 0x10", "3 1", "-1 1"} {
		code, out, errOut := lpsample(t, "1 1\n"+bad+"\n", "-n", "3", "-seed", "1")
		if code != 2 || out != "" || !strings.Contains(errOut, "line 2") {
			t.Errorf("line %q: exit %d, stdout %q, stderr %q; want exit 2 naming line 2", bad, code, out, errOut)
		}
	}
}

// TestRejectsBadFlags: flags the sampler cannot honour exit 2 with a message
// before stdin is read, instead of panicking in the constructor or silently
// falling back to a default ε or δ.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "3", "-p", "2"},
		{"-n", "3", "-p", "-1"},
		{"-n", "3", "-p", "NaN"},
		{"-n", "2147483648"},
		{"-n", "2147483648", "-p", "0"},
		{"-n", "3", "-eps", "0"},
		{"-n", "3", "-eps", "1"},
		{"-n", "3", "-delta", "0"},
		{"-n", "3", "-delta", "1.5"},
		{"-n", "3", "-bogus"},
	} {
		var stdout, stderr strings.Builder
		code := run(args, unreadable{t}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, stdout.String(), stderr.String())
		}
	}
}

// unreadable is a stdin the command must not touch.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("stdin read despite bad flags")
	return 0, io.EOF
}
