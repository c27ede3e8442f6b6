// Package checkpoint is the crash-safe durable checkpoint store under the
// ingestion engine. It persists two kinds of files in one directory:
//
//   - Generation files (gen-%016x.ckpt): an atomic, fingerprint-sealed
//     snapshot of every shard replica's marshaled state, written via
//     write-temp + fsync + rename (+ directory fsync). Generation numbers
//     are strictly monotonic.
//   - Journal segments (journal-%016x.jnl): the write-ahead record of every
//     update batch accepted since the generation of the same number was
//     written, framed with internal/codec's fingerprinted records.
//
// Recovery is restore-plus-replay: load the newest generation whose
// fingerprints verify, then replay every journal segment at or above it, in
// generation order, stopping only at a torn tail record of the final
// segment (the crash frontier). Because every sketch in this repository is
// linear, the recovered state is byte-identical to an uninterrupted run
// over the same accepted prefix — durability here is provably exact, not
// best-effort.
//
// # Generation file format
//
//	offset  size  field
//	0       4     magic "LPCK"
//	4       2     format version, little-endian uint16 (currently 1)
//	6       2     reserved (zero)
//	8       8     generation number
//	16      8     shard count S
//	24      8*S   per-shard payload lengths
//	24+8S   8     FNV-1a 64 fingerprint of every preceding byte
//	...     ...   the S shard payloads, concatenated
//	...     8     FNV-1a 64 fingerprint of every preceding byte (seals the
//	              payloads; a torn or bit-flipped file fails here)
//
// # Journal segment format
//
//	offset  size  field
//	0       4     magic "LPJN"
//	4       2     format version (currently 1)
//	6       2     reserved (zero)
//	8       8     generation this segment extends
//	16      8     FNV-1a 64 fingerprint of the 16 header bytes
//	24      ...   codec journal records (see codec.AppendRecord), each
//	              holding one update batch: pairs of little-endian
//	              (uint64 index, uint64 delta) words
//
// # Error taxonomy
//
// ErrTornWrite — a generation file or journal segment failed its
// fingerprint or arrived short: the write was torn or corrupted. Latest
// falls back to the previous generation when one verifies.
// ErrNoCheckpoint — the store holds no usable state at all.
// ErrGenerationGap — the journal chain needed to reach the newest usable
// generation is broken (a segment is missing or corrupt mid-chain), so
// exact recovery to the frontier is impossible. Callers can errors.Is
// against all three.
//
// A Store is used from one goroutine (the engine's producer goroutine); it
// is not internally locked.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/stream"
)

// Typed failures of the durability layer.
var (
	// ErrTornWrite means a file failed its fingerprint or length checks:
	// the write that produced it was torn short or corrupted in place.
	ErrTornWrite = errors.New("checkpoint: torn or corrupt write detected")
	// ErrNoCheckpoint means the store holds no usable generation and no
	// journal baseline to replay from.
	ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint")
	// ErrGenerationGap means the journal segments needed to replay from the
	// newest usable generation to the frontier are missing or corrupt
	// mid-chain — exact recovery is impossible from this store.
	ErrGenerationGap = errors.New("checkpoint: journal chain is broken (generation gap)")
	// ErrClosed means the store was already closed.
	ErrClosed = errors.New("checkpoint: store is closed")
)

const (
	genVersion     = 1
	journalVersion = 1
)

var (
	genMagic     = [4]byte{'L', 'P', 'C', 'K'}
	journalMagic = [4]byte{'L', 'P', 'J', 'N'}
)

// Options tunes a Store. The zero value is the production default.
type Options struct {
	// Keep is how many generations (and the journal segments needed to
	// recover from the oldest of them) are retained; older files are pruned
	// after each successful Save (default 2, minimum 1).
	Keep int
	// SyncJournal fsyncs the journal after every Append. Off by default:
	// generation files are always fsynced, so the exposure is the OS page
	// cache between checkpoints — the usual write-ahead trade.
	SyncJournal bool
	// Retry is the backoff policy for transient I/O failures (fsync, append)
	// inside Save and Append. Zero value = retry defaults.
	Retry retry.Policy
	// Injector, when non-nil, drives deterministic fault injection in the
	// store's I/O paths (see internal/faultinject). Nil = disabled.
	Injector *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.Keep < 1 {
		o.Keep = 2
	}
	return o
}

// Store is one on-disk checkpoint directory.
type Store struct {
	dir  string
	opts Options

	gen        uint64 // newest generation ever written (0 = none yet)
	journal    *os.File
	journalGen uint64
	journalOff int64 // bytes of the open journal known good (truncate target on a failed append)

	payload []byte // scratch for journal record payloads
	frame   []byte // scratch for framed journal records

	closed bool
}

// Recovery is what Latest reconstructs: the newest usable generation's shard
// states plus the journaled update batches to replay on top of them.
type Recovery struct {
	// Generation is the usable generation the states come from; 0 with nil
	// States means "start from zero-state replicas and replay everything"
	// (the store crashed before its first checkpoint).
	Generation uint64
	// States holds one marshaled blob per shard, in shard order, or nil for
	// the generation-0 baseline.
	States [][]byte
	// Tail is the journaled update batches accepted after Generation, in
	// acceptance order.
	Tail []stream.Stream
	// TailUpdates counts the updates across Tail.
	TailUpdates int
	// Torn lists generation numbers whose files were detected torn/corrupt
	// and skipped on the way to a usable generation (newest first).
	Torn []uint64
}

// Open opens (creating if needed) the checkpoint directory and scans it for
// the newest generation number in use, so the next Save never reuses one.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults()}
	gens, journals, err := s.scan()
	if err != nil {
		return nil, err
	}
	for _, g := range gens {
		if g > s.gen {
			s.gen = g
		}
	}
	for _, g := range journals {
		if g > s.gen {
			s.gen = g
		}
	}
	return s, nil
}

// Generation reports the newest generation number written (0 = none yet).
func (s *Store) Generation() uint64 { return s.gen }

func (s *Store) genPath(g uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("gen-%016x.ckpt", g))
}

func (s *Store) journalPath(g uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%016x.jnl", g))
}

// scan lists the generation and journal numbers present in the directory.
func (s *Store) scan() (gens, journals []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: scan %s: %w", s.dir, err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
		return g, err == nil
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if g, ok := parse(e.Name(), "gen-", ".ckpt"); ok {
			gens = append(gens, g)
		}
		if g, ok := parse(e.Name(), "journal-", ".jnl"); ok {
			journals = append(journals, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	return gens, journals, nil
}

// ---------------------------------------------------------------------------
// Save: atomic generation write + journal rotation
// ---------------------------------------------------------------------------

// Save persists states as the next generation — write-temp, fsync, rename,
// directory fsync — then rotates the journal to the new generation and
// prunes files older than the retention window. On success the returned
// generation is durable and subsequent Appends extend it. Transient I/O
// failures are retried under the store's policy; the error of the final
// attempt is returned if all fail, and a failed Save never damages existing
// state: the previous generation, and the journal segment extending it,
// stay exactly as they were.
func (s *Store) Save(states [][]byte) (uint64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	gen := s.gen + 1
	buf := encodeGeneration(gen, states)
	inj := s.opts.Injector

	// Fault injection models lying hardware: a bit flip or short write that
	// the write syscalls report as success. It must survive the atomic
	// rename, so it is applied to the buffer, not the I/O.
	inj.FlipBit(faultinject.CheckpointCorrupt, buf[8:]) // never the magic: torn, not foreign
	buf = buf[:inj.ShortLen(faultinject.CheckpointWrite, len(buf))]

	final := s.genPath(gen)
	tmp := final + ".tmp"
	err := retry.Do(nil, s.opts.Retry, func() error {
		if err := s.writeFileSync(tmp, buf); err != nil {
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
			return retry.Permanent(fmt.Errorf("checkpoint: rename %s: %w", final, err))
		}
		return s.syncDir()
	})
	if err != nil {
		return 0, fmt.Errorf("checkpoint: saving generation %d: %w", gen, err)
	}
	if err := s.rotateJournal(gen); err != nil {
		// The generation file landed but its journal segment could not be
		// started. Leaving both would be a correctness trap: recovery would
		// pick generation `gen` and ignore the still-active previous
		// segment, silently dropping every update appended after this
		// point. Undo the generation instead — the previous one plus its
		// journal remain a complete, exact recovery line.
		if rmErr := os.Remove(final); rmErr != nil {
			// Cannot roll back either: the store is no longer trustworthy.
			s.closed = true
			return 0, fmt.Errorf("checkpoint: generation %d unrecoverable (journal rotation failed: %v; rollback failed: %v): %w",
				gen, err, rmErr, ErrClosed)
		}
		return 0, fmt.Errorf("checkpoint: saving generation %d: %w", gen, err)
	}
	s.gen = gen
	s.prune()
	return gen, nil
}

// writeFileSync writes data to path and fsyncs it.
func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := s.opts.Injector.Err(faultinject.CheckpointSync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs the store directory, making renames durable.
func (s *Store) syncDir() error {
	if err := s.opts.Injector.Err(faultinject.CheckpointSync); err != nil {
		return err
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeGeneration builds the sealed generation file bytes.
func encodeGeneration(gen uint64, states [][]byte) []byte {
	size := 24 + 8*len(states) + 8 + 8
	for _, st := range states {
		size += len(st)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, genMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, genVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(states)))
	for _, st := range states {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st)))
	}
	buf = binary.LittleEndian.AppendUint64(buf, codec.Fingerprint(buf))
	for _, st := range states {
		buf = append(buf, st...)
	}
	return binary.LittleEndian.AppendUint64(buf, codec.Fingerprint(buf))
}

// decodeGeneration verifies and splits a generation file. Every failure mode
// wraps ErrTornWrite: the caller's only move is falling back a generation.
func decodeGeneration(data []byte, wantGen uint64) ([][]byte, error) {
	torn := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrTornWrite}, args...)...)
	}
	if len(data) < 40 || [4]byte(data[:4]) != genMagic {
		return nil, torn("generation file header (%d bytes)", len(data))
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != genVersion {
		return nil, torn("generation file version %d", v)
	}
	gen := binary.LittleEndian.Uint64(data[8:16])
	shards := binary.LittleEndian.Uint64(data[16:24])
	headEnd := 24 + 8*int(shards)
	if shards > 1<<20 || len(data) < headEnd+8 {
		return nil, torn("generation header promises %d shards in %d bytes", shards, len(data))
	}
	if codec.Fingerprint(data[:headEnd]) != binary.LittleEndian.Uint64(data[headEnd:]) {
		return nil, torn("generation header fingerprint")
	}
	if gen != wantGen {
		return nil, torn("generation number %d in file named %d", gen, wantGen)
	}
	if codec.Fingerprint(data[:len(data)-8]) != binary.LittleEndian.Uint64(data[len(data)-8:]) {
		return nil, torn("generation payload fingerprint")
	}
	states := make([][]byte, shards)
	off := headEnd + 8
	for i := range states {
		n := int(binary.LittleEndian.Uint64(data[24+8*i:]))
		if n < 0 || n > len(data) || off+n > len(data)-8 {
			return nil, torn("shard %d payload overruns the file", i)
		}
		states[i] = data[off : off+n]
		off += n
	}
	if off != len(data)-8 {
		return nil, torn("%d stray bytes after the shard payloads", len(data)-8-off)
	}
	return states, nil
}

// ---------------------------------------------------------------------------
// Journal: write-ahead append + rotation
// ---------------------------------------------------------------------------

// rotateJournal starts the fresh segment extending gen, then retires the
// previously open one. The new segment is opened before the old handle is
// closed, so a rotation failure leaves the old segment live and appendable —
// no window where accepted updates have nowhere durable to go.
func (s *Store) rotateJournal(gen uint64) error {
	header := make([]byte, 0, 24)
	header = append(header, journalMagic[:]...)
	header = binary.LittleEndian.AppendUint16(header, journalVersion)
	header = binary.LittleEndian.AppendUint16(header, 0)
	header = binary.LittleEndian.AppendUint64(header, gen)
	header = binary.LittleEndian.AppendUint64(header, codec.Fingerprint(header))
	path := s.journalPath(gen)
	var next *os.File
	err := retry.Do(nil, s.opts.Retry, func() error {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(header); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		next = f
		return nil
	})
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("checkpoint: starting journal %d: %w", gen, err)
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal = next
	s.journalGen = gen
	s.journalOff = int64(len(header))
	return nil
}

// resumeJournal reopens the segment extending gen for appending, scanning it
// for a torn tail first and truncating back to the last whole record — a
// reported Append success must never be preceded by garbage. Used when a
// store is reopened and appended to without an intervening Save.
func (s *Store) resumeJournal(gen uint64) error {
	path := s.journalPath(gen)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return s.rotateJournal(gen)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: resuming journal %d: %w", gen, err)
	}
	if len(data) < 24 || [4]byte(data[:4]) != journalMagic ||
		codec.Fingerprint(data[:16]) != binary.LittleEndian.Uint64(data[16:24]) ||
		binary.LittleEndian.Uint64(data[8:16]) != gen {
		return fmt.Errorf("checkpoint: resuming journal %d: header unreadable: %w", gen, ErrTornWrite)
	}
	good := int64(24)
	rest := data[24:]
	for len(rest) > 0 {
		payload, tail, rerr := codec.NextRecord(rest)
		if rerr != nil {
			break // torn tail: truncate it away
		}
		good += int64(codec.RecordOverhead + len(payload))
		rest = tail
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: resuming journal %d: %w", gen, err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: resuming journal %d: %w", gen, err)
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal = f
	s.journalGen = gen
	s.journalOff = good
	return nil
}

// Append journals one accepted update batch — the write-ahead half of the
// durability contract: a batch is recoverable the moment Append returns.
// The first Append of a fresh store (before any Save) starts the
// generation-0 baseline segment. A failed write is retried after truncating
// back to the last good record boundary, so a torn in-file record never
// survives a reported success.
func (s *Store) Append(batch []stream.Update) error {
	if s.closed {
		return ErrClosed
	}
	if len(batch) == 0 {
		return nil
	}
	if s.journal == nil {
		if err := s.resumeJournal(s.gen); err != nil {
			return err
		}
	}
	s.payload = codec.AppendUpdates(s.payload[:0], batch)
	s.frame = codec.AppendRecord(s.frame[:0], s.payload)
	err := retry.Do(nil, s.opts.Retry, func() error {
		if err := s.opts.Injector.Err(faultinject.JournalAppend); err != nil {
			return err
		}
		if _, err := s.journal.WriteAt(s.frame, s.journalOff); err != nil {
			return err
		}
		if s.opts.SyncJournal {
			if err := s.journal.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// Leave the file truncated at the last good boundary: a half-written
		// record must not precede a later successful append.
		if terr := s.journal.Truncate(s.journalOff); terr == nil {
			return fmt.Errorf("checkpoint: journal append: %w", err)
		}
		// Truncate also failed: poison the handle so later Appends reopen.
		s.journal.Close()
		s.journal = nil
		return fmt.Errorf("checkpoint: journal append (segment abandoned): %w", err)
	}
	s.journalOff += int64(len(s.frame))
	return nil
}

// readJournal parses one segment: header, then records until the end or a
// torn tail. final selects the tolerance: the final (newest) segment may end
// mid-record — that is the crash frontier — while an older segment ending
// dirty means updates were lost mid-chain and recovery must fail.
func (s *Store) readJournal(gen uint64, final bool) ([]stream.Stream, error) {
	data, err := os.ReadFile(s.journalPath(gen))
	if err != nil {
		return nil, fmt.Errorf("%w: journal %d: %v", ErrGenerationGap, gen, err)
	}
	if len(data) < 24 || [4]byte(data[:4]) != journalMagic ||
		binary.LittleEndian.Uint16(data[4:6]) != journalVersion ||
		binary.LittleEndian.Uint64(data[8:16]) != gen ||
		codec.Fingerprint(data[:16]) != binary.LittleEndian.Uint64(data[16:24]) {
		if final {
			// A torn header on the newest segment means it never finished
			// being created: nothing after its generation was accepted.
			return nil, nil
		}
		return nil, fmt.Errorf("%w: journal %d header unreadable", ErrGenerationGap, gen)
	}
	var batches []stream.Stream
	rest := data[24:]
	for len(rest) > 0 {
		payload, tail, err := codec.NextRecord(rest)
		if err != nil {
			if final && errors.Is(err, codec.ErrTruncated) {
				return batches, nil // crash frontier
			}
			if final && errors.Is(err, codec.ErrBadRecord) {
				// In-place corruption of the newest segment's tail: the
				// records before it are intact and replayable, but flag the
				// tear for Latest's accounting.
				return batches, fmt.Errorf("%w: journal %d record corrupt", ErrTornWrite, gen)
			}
			return nil, fmt.Errorf("%w: journal %d: %v", ErrGenerationGap, gen, err)
		}
		batch, err := codec.DecodeUpdates(payload)
		if err != nil {
			if final {
				return batches, fmt.Errorf("%w: journal %d record malformed", ErrTornWrite, gen)
			}
			return nil, fmt.Errorf("%w: journal %d record malformed", ErrGenerationGap, gen)
		}
		batches = append(batches, batch)
		rest = tail
	}
	return batches, nil
}

// ---------------------------------------------------------------------------
// Latest: recovery
// ---------------------------------------------------------------------------

// Latest reconstructs the newest recoverable state: the newest generation
// whose fingerprints verify (falling back over torn ones), plus the journal
// tail to replay. ErrNoCheckpoint when the store is empty or nothing
// verifies; ErrGenerationGap when the needed journal chain is broken.
func (s *Store) Latest() (*Recovery, error) {
	if s.closed {
		return nil, ErrClosed
	}
	gens, journals, err := s.scan()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 && len(journals) == 0 {
		return nil, ErrNoCheckpoint
	}
	rec := &Recovery{}
	// Walk generations newest-first until one verifies.
	base := uint64(0)
	var states [][]byte
	found := false
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		data, rerr := s.readGenFile(g)
		if rerr == nil {
			if states, rerr = decodeGeneration(data, g); rerr == nil {
				base, found = g, true
				break
			}
		}
		rec.Torn = append(rec.Torn, g)
	}
	if !found {
		states = nil
		base = 0
		// With no usable generation, recovery must replay from the very
		// first segment: the baseline is the zero state.
		if len(journals) == 0 || journals[0] != 0 {
			err := fmt.Errorf("%w: no generation verifies and the journal baseline is missing", ErrNoCheckpoint)
			if len(rec.Torn) > 0 {
				err = errors.Join(err, ErrTornWrite)
			}
			return nil, err
		}
	}
	rec.Generation = base
	rec.States = states

	// Replay journals base..newest, requiring a contiguous chain. Segments
	// below base predate the usable generation and are ignored (their
	// updates are already folded into it).
	var chain []uint64
	for _, g := range journals {
		if g >= base {
			chain = append(chain, g)
		}
	}
	for i, g := range chain {
		if want := base + uint64(i); g != want {
			return nil, fmt.Errorf("%w: journal %d missing (found %d)", ErrGenerationGap, want, g)
		}
		batches, jerr := s.readJournal(g, i == len(chain)-1)
		if jerr != nil && !errors.Is(jerr, ErrTornWrite) {
			return nil, jerr
		}
		for _, b := range batches {
			rec.Tail = append(rec.Tail, b)
			rec.TailUpdates += len(b)
		}
		if jerr != nil {
			// Final-segment tail corruption: the records before it are
			// intact and already collected; record the tear and stop.
			rec.Torn = append(rec.Torn, g)
			break
		}
	}
	// len(chain) == 0 happens only with a verified generation whose journal
	// was never created (crash between rename and rotation): nothing was
	// accepted after it, so an empty tail is exactly right.
	return rec, nil
}

// readGenFile reads a generation file with read-fault injection.
func (s *Store) readGenFile(g uint64) ([]byte, error) {
	if err := s.opts.Injector.Err(faultinject.CheckpointRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.genPath(g))
	if err != nil {
		return nil, err
	}
	s.opts.Injector.FlipBit(faultinject.CodecDecode, data)
	return data, nil
}

// ---------------------------------------------------------------------------
// Retention + lifecycle
// ---------------------------------------------------------------------------

// prune removes generations beyond the retention window and the journal
// segments nothing retained can need. Best-effort: a failed remove is
// retried on the next Save.
func (s *Store) prune() {
	gens, journals, err := s.scan()
	if err != nil {
		return
	}
	if len(gens) <= s.opts.Keep {
		return
	}
	oldestKept := gens[len(gens)-s.opts.Keep]
	for _, g := range gens {
		if g < oldestKept {
			os.Remove(s.genPath(g))
		}
	}
	// Recovering from oldestKept needs journals oldestKept..newest; anything
	// below is dead weight.
	for _, g := range journals {
		if g < oldestKept {
			os.Remove(s.journalPath(g))
		}
	}
}

// Generations lists the generation numbers currently on disk, oldest first
// (verified or not).
func (s *Store) Generations() []uint64 {
	gens, _, err := s.scan()
	if err != nil {
		return nil
	}
	return gens
}

// Close releases the journal handle. The store's files stay on disk; a new
// Open resumes from them.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}
