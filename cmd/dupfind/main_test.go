package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
)

// dupfind runs the command on args and stdin and returns its exit status,
// stdout and stderr.
func dupfind(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// items renders letters one per line.
func items(letters []int) string {
	var b strings.Builder
	for _, l := range letters {
		fmt.Fprintln(&b, l)
	}
	return b.String()
}

// TestFindsTheDuplicate: the documented seq-plus-one stream, and the
// Theorem 3 regime at scale — every one of 20000 click tokens once plus one
// replayed token, shuffled — each report the one repeated letter; a stream
// with no duplicate FAILs with exit status 1.
func TestFindsTheDuplicate(t *testing.T) {
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = i
	}
	code, out, errOut := dupfind(t, items(append(seq, 55)), "-n", "100", "-seed", "3")
	if code != 0 || out != "duplicate=55\n" {
		t.Fatalf("seq 0 99 + 55: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, _ = dupfind(t, items(seq[:99]), "-n", "100", "-seed", "3")
	if code != 1 || out != "FAIL\n" {
		t.Fatalf("seq 0 98: exit %d, stdout %q, want 1 and FAIL", code, out)
	}

	const tokens = 20_000
	r := rand.New(rand.NewPCG(2024, 6))
	replayed := r.IntN(tokens)
	clicks := append(r.Perm(tokens), replayed)
	r.Shuffle(len(clicks), func(a, b int) { clicks[a], clicks[b] = clicks[b], clicks[a] })
	code, out, errOut = dupfind(t, items(clicks), "-n", fmt.Sprint(tokens), "-seed", "99", "-delta", "0.1")
	if want := fmt.Sprintf("duplicate=%d\n", replayed); code != 0 || out != want {
		t.Fatalf("replayed click token: exit %d, stdout %q, stderr %q; want %q", code, out, errOut, want)
	}
}

// TestRejectsMalformedLines: a line is exactly one base-10 integer in
// [0,n); anything else exits 2 and names the line, instead of observing the
// prefix a scanf-style reader would accept.
func TestRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{"3.9", "3 4", "x", "0x3", "5", "-1"} {
		code, out, errOut := dupfind(t, "1\n"+bad+"\n", "-n", "5", "-seed", "1")
		if code != 2 || out != "" || !strings.Contains(errOut, "line 2") {
			t.Errorf("line %q: exit %d, stdout %q, stderr %q; want exit 2 naming line 2", bad, code, out, errOut)
		}
	}
}

// TestRejectsBadFlags: flags the finder cannot honour exit 2 with a message
// before stdin is read, instead of silently falling back to a default δ.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "5", "-delta", "0"},
		{"-n", "5", "-delta", "1.5"},
		{"-n", "5", "-bogus"},
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
