// Package faultinject is a deterministic, seed-driven fault injector for the
// durability and supervision layers. Injection points are compiled into the
// checkpoint store's I/O (short writes, fsync failures, bit flips, read
// errors), the journal append path, the engine's replica merge, and the
// shard workers (panics). A nil *Injector is the disabled state: every hook
// is a nil-receiver no-op costing one pointer compare, so production paths
// carry no overhead.
//
// # Determinism
//
// Each injection point keeps its own atomic fire counter, and the decision
// for the k-th evaluation of point p is a pure function of (seed, p, k):
// splitmix64(seed ⊕ fnv(p) ⊕ k) compared against the rate threshold. The
// *schedule* of faults — which evaluations of which points fail — is
// therefore exactly reproducible from the seed alone, even when the
// evaluations happen on worker goroutines (concurrency may permute which
// goroutine draws which k, but the set of failing draws is fixed). The chaos
// suite sweeps seeds and prints the failing seed as a one-line repro.
//
// # Enabling
//
// Programmatically: faultinject.New(seed, rate), handed to
// checkpoint.Options.Injector / engine Config.Injector. From the
// environment: REPRO_FAULTS="seed:rate" (e.g. REPRO_FAULTS=42:0.01) makes
// FromEnv return a live injector; unset or empty returns nil (disabled).
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point names one injection site. The constants below are the sites compiled
// into this repository; Fire accepts any Point, so tests can add private
// ones.
type Point string

const (
	// CheckpointWrite short-writes a generation file: only a prefix of the
	// bytes reaches disk (torn write).
	CheckpointWrite Point = "checkpoint/write"
	// CheckpointSync fails the fsync of a generation file or directory.
	CheckpointSync Point = "checkpoint/sync"
	// CheckpointCorrupt flips one bit in a generation file's payload on its
	// way to disk (lying-hardware corruption that survives the atomic
	// rename).
	CheckpointCorrupt Point = "checkpoint/corrupt"
	// CheckpointRead fails reading a generation file back.
	CheckpointRead Point = "checkpoint/read"
	// CodecDecode flips one bit in bytes about to be decoded, exercising the
	// codec's fingerprint and framing detection.
	CodecDecode Point = "codec/decode"
	// JournalAppend fails a journal record append.
	JournalAppend Point = "journal/append"
	// EngineMerge fails a replica fold during Results/rollback.
	EngineMerge Point = "engine/merge"
	// WorkerPanic panics a shard worker mid-batch, exercising the engine's
	// recover() isolation and quarantine/respawn path.
	WorkerPanic Point = "engine/worker-panic"
)

// InjectedPanic is the value a WorkerPanic injection panics with, so the
// engine's supervision tests can tell injected panics from real bugs.
type InjectedPanic struct {
	Point Point
	Seq   uint64
}

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (draw %d)", p.Point, p.Seq)
}

// InjectedErr is the typed error injected at I/O points.
type InjectedErr struct {
	Point Point
	Seq   uint64
}

func (e *InjectedErr) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (draw %d)", e.Point, e.Seq)
}

// Injector decides, deterministically per seed, which evaluations of which
// injection points fail. The zero value must not be used; construct with
// New. A nil *Injector is valid everywhere and never fires.
type Injector struct {
	seed      uint64
	threshold uint64 // rate scaled to [0, 2^64)
	only      map[Point]bool

	mu       sync.Mutex
	counters map[Point]*atomic.Uint64
	fired    atomic.Int64
}

// New builds an injector firing each point's evaluations independently with
// the given probability (clamped to [0,1]), scheduled by seed.
func New(seed uint64, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	var threshold uint64
	if rate >= 1 {
		threshold = ^uint64(0)
	} else {
		threshold = uint64(rate * float64(1<<63) * 2)
	}
	return &Injector{
		seed:      seed,
		threshold: threshold,
		counters:  make(map[Point]*atomic.Uint64),
	}
}

// Only restricts the injector to the listed points (all others never fire)
// and returns the receiver, for chaining at construction.
func (in *Injector) Only(points ...Point) *Injector {
	in.only = make(map[Point]bool, len(points))
	for _, p := range points {
		in.only[p] = true
	}
	return in
}

// EnvVar is the environment knob FromEnv reads: "seed:rate".
const EnvVar = "REPRO_FAULTS"

// FromEnv builds an injector from REPRO_FAULTS="seed:rate", or returns nil
// (disabled) when the variable is unset or empty. A malformed value is an
// error rather than a silent no-op, so a typo'd repro line cannot
// masquerade as a clean run.
func FromEnv() (*Injector, error) {
	v := strings.TrimSpace(os.Getenv(EnvVar))
	if v == "" {
		return nil, nil
	}
	seedStr, rateStr, ok := strings.Cut(v, ":")
	if !ok {
		return nil, fmt.Errorf("faultinject: %s=%q: want \"seed:rate\"", EnvVar, v)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s seed %q: %w", EnvVar, seedStr, err)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faultinject: %s rate %q: want a probability in [0,1]", EnvVar, rateStr)
	}
	return New(seed, rate), nil
}

// counter returns the point's fire counter, creating it on first use.
func (in *Injector) counter(p Point) *atomic.Uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.counters[p]
	if c == nil {
		c = new(atomic.Uint64)
		in.counters[p] = c
	}
	return c
}

// fnv1a hashes the point name into the decision stream.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the finalizer turning (seed, point, draw) into a uniform
// 64-bit decision word.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// eval draws the next decision for the point, returning (sequence, fired).
func (in *Injector) eval(p Point) (uint64, bool) {
	if in == nil {
		return 0, false
	}
	if in.only != nil && !in.only[p] {
		return 0, false
	}
	seq := in.counter(p).Add(1) - 1
	fire := splitmix64(in.seed^fnv1a(string(p))^seq) < in.threshold
	if fire {
		in.fired.Add(1)
	}
	return seq, fire
}

// Fire reports whether this evaluation of the point should fail. Nil-safe:
// a nil injector never fires.
func (in *Injector) Fire(p Point) bool {
	_, fired := in.eval(p)
	return fired
}

// Err returns a typed *InjectedErr when this evaluation fires, nil
// otherwise — the one-liner for error-returning injection sites.
func (in *Injector) Err(p Point) error {
	seq, fired := in.eval(p)
	if !fired {
		return nil
	}
	return &InjectedErr{Point: p, Seq: seq}
}

// MaybePanic panics with an InjectedPanic when this evaluation fires.
func (in *Injector) MaybePanic(p Point) {
	if seq, fired := in.eval(p); fired {
		panic(InjectedPanic{Point: p, Seq: seq})
	}
}

// FlipBit deterministically corrupts one bit of data in place when this
// evaluation fires, returning whether it did. The bit position is drawn from
// the same decision stream, so the corruption is reproducible.
func (in *Injector) FlipBit(p Point, data []byte) bool {
	seq, fired := in.eval(p)
	if !fired || len(data) == 0 {
		return false
	}
	bit := splitmix64(in.seed^fnv1a(string(p))^(seq<<1)^0xC0FFEE) % uint64(len(data)*8)
	data[bit/8] ^= 1 << (bit % 8)
	return true
}

// ShortLen returns a deterministic strict prefix length for data when this
// evaluation fires, and len(data) otherwise — the torn-write injection for
// file writes.
func (in *Injector) ShortLen(p Point, n int) int {
	seq, fired := in.eval(p)
	if !fired || n == 0 {
		return n
	}
	return int(splitmix64(in.seed^fnv1a(string(p))^(seq<<1)^0x7EA4) % uint64(n))
}

// Fired reports how many faults this injector has injected in total.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.fired.Load()
}
