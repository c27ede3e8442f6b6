package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// workload runs the command on args and returns its exit status and stdout.
func workload(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	if code != 0 && stderr.Len() == 0 {
		t.Errorf("%v: exit %d without a message", args, code)
	}
	return code, stdout.String()
}

// TestUpdateKinds: every update kind prints "index delta" lines over [0,n)
// with nonzero deltas, the same flags print the same stream, and each kind
// keeps its promise — turnstile deltas stay within -max, the sparse final
// vector has exactly -support nonzeros, the strict one none negative.
func TestUpdateKinds(t *testing.T) {
	const n, maxAbs = 200, 50
	for _, kind := range []string{"turnstile", "zipf", "sparse", "strict"} {
		args := []string{"-kind", kind, "-n", fmt.Sprint(n), "-len", "3000", "-max", fmt.Sprint(maxAbs), "-support", "12", "-seed", "7"}
		code, out := workload(t, args...)
		if _, again := workload(t, args...); code != 0 || out != again {
			t.Fatalf("%s: exit %d, or two runs differ", kind, code)
		}
		x := make([]int64, n)
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			var i int
			var d int64
			if _, err := fmt.Sscanf(line, "%d %d", &i, &d); err != nil || fmt.Sprintf("%d %d", i, d) != line || i < 0 || i >= n || d == 0 {
				t.Fatalf("%s: bad line %q", kind, line)
			}
			if kind == "turnstile" && (d < -maxAbs || d > maxAbs) {
				t.Fatalf("%s: delta %d beyond -max %d", kind, d, maxAbs)
			}
			x[i] += d
		}
		support, negative := 0, 0
		for _, v := range x {
			if v != 0 {
				support++
			}
			if v < 0 {
				negative++
			}
		}
		if kind == "sparse" && support != 12 {
			t.Errorf("sparse: final support %d, want 12", support)
		}
		if kind == "strict" && negative != 0 {
			t.Errorf("strict: %d negative coordinates in the final vector", negative)
		}
	}
}

// TestDuplicatesKind: the duplicates kind prints n+1 letters over [0,n),
// so by pigeonhole one repeats.
func TestDuplicatesKind(t *testing.T) {
	code, out := workload(t, "-kind", "duplicates", "-n", "100", "-seed", "3")
	lines := strings.Fields(out)
	if code != 0 || len(lines) != 101 {
		t.Fatalf("exit %d, %d letters, want 0 and 101", code, len(lines))
	}
	for _, l := range lines {
		var v int
		if _, err := fmt.Sscan(l, &v); err != nil || fmt.Sprint(v) != l || v < 0 || v >= 100 {
			t.Fatalf("letter %q outside [0,100)", l)
		}
	}
}

// TestRejectsBadFlags: an unknown kind or flag exits 2 with a message and
// prints no stream.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-kind", "nope"}, {"-ingest", "l0"}} {
		if code, out := workload(t, args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %d bytes; want 2 and none", args, code, len(out))
		}
	}
}

// TestReportsWriteError: a stream that cannot be written exits 1 with a
// message instead of ending as if it had been printed.
func TestReportsWriteError(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-kind", "duplicates", "-n", "10"}, brokenPipe{}, &stderr); code != 1 || stderr.Len() == 0 {
		t.Fatalf("exit %d, stderr %q; want 1 with a message", code, stderr.String())
	}
}

type brokenPipe struct{}

func (brokenPipe) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
