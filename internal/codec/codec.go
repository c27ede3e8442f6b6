// Package codec defines the versioned wire format that every serializable
// sketch in this repository speaks, plus the error taxonomy shared by the
// merge and restore paths.
//
// # Wire format (version 1)
//
// A serialized sketch is one self-describing byte string:
//
//	offset  size  field
//	0       4     magic "LPSK"
//	4       2     format version, little-endian uint16 (currently 1)
//	6       2     sketch kind, little-endian uint16 (Kind)
//	8       ...   config block: kind-specific fixed sequence of 64-bit words
//	              (dimension, p, ε, δ, copies, sparsity, nested, seed, ...)
//	...     8     fingerprint: FNV-1a 64 over every preceding byte
//	...     ...   payload: the sketch's linear measurements, 64-bit words
//
// The config block plus the construction seed fully determine the sketch's
// shape and randomness, so a reader reconstructs a ready-to-merge instance
// from the bytes alone and then overwrites its linear state with the
// payload. The fingerprint seals the header: a corrupted config block is
// rejected with ErrBadFingerprint before any allocation-driving field is
// trusted. Everything is little-endian; floats travel as IEEE-754 bits.
// Which words a kind's config block holds, in which order, the ranges and
// word budget a reader holds them to, and how it rebuilds the sketch are one
// row of the kind table in the root package (kinds.go); this package knows
// only the framing.
//
// The Encoder/Decoder pair below is deliberately minimal — append-only
// writing, sticky-error reading — so the per-substrate AppendState /
// RestoreState methods threaded through the sketch packages stay free of
// error plumbing until the single Err check at the end. record.go frames the
// checkpoint journal and sketchd's ingest frames, whose payload is one
// layout of (index, delta) pairs (AppendUpdates / DecodeUpdates).
//
// # Error taxonomy
//
// Decode failures surface as wrapped ErrBadMagic / ErrBadVersion /
// ErrBadKind / ErrBadConfig / ErrBadFingerprint / ErrTruncated /
// ErrTrailingData. Merge failures across every sketch package wrap
// ErrNilMerge / ErrSeedMismatch / ErrConfigMismatch, so callers dispatch
// with errors.Is instead of matching strings. The public streamsample
// package re-exports the merge sentinels.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the current wire-format version.
const Version = 1

// magic identifies a serialized sketch of this repository.
var magic = [4]byte{'L', 'P', 'S', 'K'}

// headerSize is magic + version + kind.
const headerSize = 8

// Kind identifies which sketch a byte string holds.
type Kind uint16

// The sketch kinds of the public API plus the internal checkpointable
// composites. Values are part of the wire format: never reorder, only
// append. Value 7 is retired (the deleted graph-sketch composite) and must
// not be reused: a blob written with it must never decode as another kind.
const (
	KindInvalid Kind = iota
	KindLpSampler
	KindL0Sampler
	KindDuplicateFinder
	KindHeavyHitters
	KindTwoPassL0Sampler
	KindFpEstimator
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindLpSampler:
		return "LpSampler"
	case KindL0Sampler:
		return "L0Sampler"
	case KindDuplicateFinder:
		return "DuplicateFinder"
	case KindHeavyHitters:
		return "HeavyHitters"
	case KindTwoPassL0Sampler:
		return "TwoPassL0Sampler"
	case KindFpEstimator:
		return "FpEstimator"
	default:
		return fmt.Sprintf("Kind(%d)", uint16(k))
	}
}

// Merge sentinels: every Merge path in the repository wraps one of these.
var (
	// ErrNilMerge is wrapped when Merge is handed a nil sketch.
	ErrNilMerge = errors.New("merging a nil sketch")
	// ErrSeedMismatch is wrapped when two sketches were built from different
	// randomness (same-seed replicas are required for linear merging).
	ErrSeedMismatch = errors.New("merging sketches with different seeds (same-seed replicas required)")
	// ErrConfigMismatch is wrapped when two sketches differ in type, shape
	// or construction parameters.
	ErrConfigMismatch = errors.New("merging sketches of different configurations")
)

// Decode sentinels.
var (
	// ErrBadMagic means the bytes do not start with the sketch magic.
	ErrBadMagic = errors.New("codec: bad magic (not a serialized sketch)")
	// ErrBadVersion means the format version is not supported.
	ErrBadVersion = errors.New("codec: unsupported format version")
	// ErrBadKind means the sketch kind is unknown to this reader, or does
	// not match the receiver the bytes were decoded into.
	ErrBadKind = errors.New("codec: sketch kind mismatch")
	// ErrBadConfig means the config block decoded to parameters outside the
	// constructible range.
	ErrBadConfig = errors.New("codec: invalid config block")
	// ErrBadFingerprint means the header fingerprint check failed: the
	// config block was corrupted in flight.
	ErrBadFingerprint = errors.New("codec: header fingerprint mismatch (corrupt config block)")
	// ErrTruncated means the bytes end before the structure they promise.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrTrailingData means bytes remain after a complete decode.
	ErrTrailingData = errors.New("codec: trailing data after payload")
)

// fnv1a is the 64-bit FNV-1a hash sealing the header.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// Encoder builds one serialized sketch, append-only.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a serialized sketch of the given kind: magic, version
// and kind are written immediately.
func NewEncoder(kind Kind) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, magic[:]...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, Version)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(kind))
	return e
}

// U64 appends one little-endian 64-bit word.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a signed word (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a flag as a full word (keeps every field 8-byte aligned).
func (e *Encoder) Bool(v bool) {
	var w uint64
	if v {
		w = 1
	}
	e.U64(w)
}

// SealHeader appends the FNV-1a fingerprint of everything written so far —
// call it once, after the config block and before the payload.
func (e *Encoder) SealHeader() { e.U64(fnv1a(e.buf)) }

// Bytes returns the serialized sketch. The encoder may not be reused.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// PayloadBits reports the bits s.AppendState writes: the repository's one space
// accounting below the public layer, and the message of the §4 public-coin
// protocols. AppendState may fold buffered updates first, as serializing does.
func PayloadBits(s interface{ AppendState(e *Encoder) }) int64 {
	var e Encoder
	s.AppendState(&e)
	return 8 * int64(len(e.buf))
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// Decoder reads one serialized sketch with sticky errors: after the first
// failure every read returns zero and Err reports the cause, so restore
// paths can decode a whole structure and check once at the end.
type Decoder struct {
	data []byte
	off  int
	kind Kind
	err  error
}

// NewDecoder validates magic and version and positions the decoder at the
// config block. The kind is available via Kind.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if [4]byte(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrBadVersion, v, Version)
	}
	return &Decoder{
		data: data,
		off:  headerSize,
		kind: Kind(binary.LittleEndian.Uint16(data[6:8])),
	}, nil
}

// Kind reports the sketch kind declared in the header.
func (d *Decoder) Kind() Kind { return d.kind }

// U64 reads one little-endian word (zero after a failure).
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.err = fmt.Errorf("%w: want 8 bytes at offset %d of %d", ErrTruncated, d.off, len(d.data))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed word.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a flag word.
func (d *Decoder) Bool() bool { return d.U64() != 0 }

// VerifyHeader checks the fingerprint sealing the header: the FNV-1a of
// every byte before the current offset must equal the next word. Call it
// exactly where the encoder called SealHeader.
func (d *Decoder) VerifyHeader() error {
	if d.err != nil {
		return d.err
	}
	want := fnv1a(d.data[:d.off])
	if got := d.U64(); d.err == nil && got != want {
		d.err = ErrBadFingerprint
	}
	return d.err
}

// Err reports the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Fail injects a failure into the decoder from a caller that discovered the
// decoded values are semantically invalid (e.g. an out-of-range payload
// marker). The first failure wins; subsequent reads return zero and Finish
// reports it.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish reports the first failure, or ErrTrailingData when unread bytes
// remain after a complete decode.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailingData, len(d.data)-d.off)
	}
	return nil
}
