// Package sketchd is the sketch-serving network tier: a stdlib-only HTTP
// server exposing a multi-tenant registry of the repository's linear
// sketches — create / ingest / merge / query / delete by {tenant, name} —
// where every registered sketch is backed by a one-shard ingestion engine
// (internal/engine, so raw-update ingest rides the kernel-dispatched hot
// paths) and persisted through the durable checkpoint store
// (internal/checkpoint, so SIGTERM drains and SIGKILL restarts recover the
// registry byte-identically from the last sealed generation plus the
// write-ahead journal tail).
//
// The tier completes the distributed pattern the wire format (PR 5) set up:
// edge processes sketch locally, ship O(polylog) bytes, the serving tier
// folds them — exactly, by sketch linearity — and answers queries. Two
// ingest paths exist per registered sketch:
//
//   - Raw update batches: streamed, length-prefixed internal/codec frames
//     (POST .../updates). Each frame is one batch of (index, delta) pairs
//     fed straight into the sketch's engine, journaled write-ahead.
//   - Pre-sketched bytes: a whole serialized sketch (POST .../sketches),
//     validated and folded through a hierarchical merge tree — leaf
//     aggregators absorb uploads under per-leaf locks and only detached,
//     pre-folded intermediates touch the authoritative accumulator, so
//     thousands of concurrent exporters never serialize on one mutex.
//
// Every ingest request carries wire-format version negotiation: the client
// lists the codec versions it speaks, the server picks the newest common
// one (echoed in the response) or rejects with a typed error. Errors cross
// the wire as a structured JSON envelope carrying a stable machine code, so
// the client package reconstructs errors.Is-able sentinels (seed mismatch,
// config mismatch, partial results) on the far side.
package sketchd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/stream"
)

// Negotiation headers. The client lists every wire-format version it can
// encode/decode in HeaderWireVersions (comma-separated decimal); the server
// answers every ingest/query response with the single chosen version in
// HeaderWireVersion.
const (
	HeaderWireVersions = "X-Sketch-Wire-Versions"
	HeaderWireVersion  = "X-Sketch-Wire-Version"
)

// SupportedWireVersions lists the codec versions this server build speaks,
// ascending. Version values are the internal/codec format versions — the
// bytes on the wire ARE the serialized-sketch format, so negotiation is
// about exactly that version number.
var SupportedWireVersions = []uint16{codec.Version}

// ErrVersionNegotiation is the typed failure of wire-version negotiation:
// the client offered no version this server speaks (or an unparseable
// offer). It wraps codec.ErrBadVersion so existing errors.Is dispatch on
// the codec taxonomy keeps working.
var ErrVersionNegotiation = fmt.Errorf("sketchd: wire-version negotiation failed: %w", codec.ErrBadVersion)

// Negotiate picks the wire version for one request: the highest version
// present in both the client's comma-separated offer and
// SupportedWireVersions. An empty offer means a bare v1 client (the header
// predates nothing — version 1 is the only format that ever existed without
// the header), so it resolves to 1 only if the server still speaks it.
func Negotiate(offer string) (uint16, error) {
	if strings.TrimSpace(offer) == "" {
		offer = "1"
	}
	client := make(map[uint16]bool)
	for _, tok := range strings.Split(offer, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseUint(tok, 10, 16)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("%w: unparseable offered version %q", ErrVersionNegotiation, tok)
		}
		client[uint16(v)] = true
	}
	if len(client) == 0 {
		return 0, fmt.Errorf("%w: empty version offer", ErrVersionNegotiation)
	}
	best := uint16(0)
	for _, v := range SupportedWireVersions {
		if client[v] && v > best {
			best = v
		}
	}
	if best == 0 {
		offered := make([]int, 0, len(client))
		for v := range client {
			offered = append(offered, int(v))
		}
		sort.Ints(offered)
		return 0, fmt.Errorf("%w: client offers %v, server speaks %v",
			ErrVersionNegotiation, offered, SupportedWireVersions)
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// Raw-update frames
// ---------------------------------------------------------------------------

// ErrBadFrame is the typed failure of the raw-update ingest framing: a
// frame decoded structurally (length and fingerprint verified) but its
// payload is not a whole number of (index, delta) pairs, or an index is
// outside the sketch's dimension.
var ErrBadFrame = errors.New("sketchd: malformed update frame")

// MaxFrameLen bounds one frame's payload on the network path — tighter than
// codec.MaxRecordLen because a single HTTP request should stream many small
// frames, not one giant one. 16 MiB is 1M updates per frame.
const MaxFrameLen = 1 << 24

// AppendFrame frames one update batch as a length-prefixed, fingerprinted
// codec record appended to dst: the exact record format the checkpoint
// journal uses, so one framing layer serves disk and wire.
func AppendFrame(dst []byte, batch []stream.Update) []byte {
	return codec.AppendRecord(dst, codec.AppendUpdates(make([]byte, 0, 16*len(batch)), batch))
}

// DecodeFramePayload decodes one frame payload into updates. n bounds the
// index range when positive: any index outside [0, n) rejects the whole
// frame — the server must never route a hostile coordinate into a sketch
// built for dimension n.
func DecodeFramePayload(payload []byte, n int) ([]stream.Update, error) {
	batch, err := codec.DecodeUpdates(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	for _, u := range batch {
		if u.Index < 0 || (n > 0 && u.Index >= n) {
			return nil, fmt.Errorf("%w: index %d outside sketch dimension %d", ErrBadFrame, u.Index, n)
		}
	}
	return batch, nil
}

// FrameReader streams update frames off an ingest request body. Each Next
// call returns one decoded batch; a clean end of stream returns io.EOF.
type FrameReader struct {
	r   *bufio.Reader
	n   int // index bound, 0 disables
	hdr [codec.RecordOverhead]byte
	buf []byte
}

// NewFrameReader wraps r; n is the sketch dimension bound handed to
// DecodeFramePayload (0 disables the bound).
func NewFrameReader(r io.Reader, n int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10), n: n}
}

// Next reads one frame. io.EOF means the stream ended cleanly on a frame
// boundary; a stream cut inside a frame fails with codec.ErrTruncated, a
// fingerprint failure with codec.ErrBadRecord, an oversized length with
// ErrBadFrame — all typed, none panic, whatever the bytes.
func (fr *FrameReader) Next() ([]stream.Update, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: stream ends inside a frame header", codec.ErrTruncated)
	}
	length := binary.LittleEndian.Uint32(fr.hdr[:4])
	want := binary.LittleEndian.Uint64(fr.hdr[4:12])
	if length > MaxFrameLen {
		return nil, fmt.Errorf("%w: frame promises %d bytes, limit %d", ErrBadFrame, length, MaxFrameLen)
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("%w: stream ends inside a %d-byte frame payload", codec.ErrTruncated, length)
	}
	if codec.Fingerprint(payload) != want {
		return nil, fmt.Errorf("%w: %d-byte frame", codec.ErrBadRecord, length)
	}
	return DecodeFramePayload(payload, fr.n)
}
