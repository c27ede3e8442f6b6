package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/stream"
)

// Journal record framing. The checkpoint store's segment journal
// (internal/checkpoint) is a sequence of self-delimiting records appended to
// a file; each record carries its own length and an FNV-1a fingerprint of
// its payload, so a reader can walk the file record by record, detect a torn
// tail (the crash frontier — the write the process died inside), and
// distinguish it from mid-file corruption:
//
//	offset  size  field
//	0       4     payload length, little-endian uint32
//	4       8     FNV-1a 64 fingerprint of the payload
//	12      ...   payload
//
// NextRecord reports a clean ErrTruncated for an incomplete header or
// payload (torn tail: everything before it is intact) and ErrBadRecord for a
// complete record whose fingerprint does not match (corruption: the file
// cannot be trusted past this point).

// ErrBadRecord means a complete journal record failed its payload
// fingerprint: the bytes were corrupted in place, not merely cut short.
var ErrBadRecord = errors.New("codec: journal record fingerprint mismatch")

// Fingerprint is the FNV-1a 64 hash the wire format and the framing layers
// seal bytes with, exported for the checkpoint store's file headers.
func Fingerprint(b []byte) uint64 { return fnv1a(b) }

// recordHeaderSize is length + fingerprint.
const recordHeaderSize = 4 + 8

// MaxRecordLen bounds a single record's payload — a sanity valve so a
// corrupt length field cannot drive a multi-gigabyte allocation before the
// fingerprint check.
const MaxRecordLen = 1 << 30

// AppendRecord frames payload as one journal record appended to dst.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, fnv1a(payload))
	return append(dst, payload...)
}

// AppendUpdates appends a batch as the payload a journal record or an ingest
// frame carries: per update a 16-byte pair of little-endian words, the index
// then the delta.
func AppendUpdates(dst []byte, batch []stream.Update) []byte {
	for _, u := range batch {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(u.Index))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(u.Delta))
	}
	return dst
}

// DecodeUpdates is the inverse of AppendUpdates. A payload that is not a
// whole number of pairs fails with ErrTruncated.
func DecodeUpdates(payload []byte) ([]stream.Update, error) {
	if len(payload)%16 != 0 {
		return nil, fmt.Errorf("%w: %d-byte payload is not a whole number of (index, delta) pairs", ErrTruncated, len(payload))
	}
	batch := make([]stream.Update, len(payload)/16)
	for i := range batch {
		batch[i] = stream.Update{
			Index: int(binary.LittleEndian.Uint64(payload[16*i:])),
			Delta: int64(binary.LittleEndian.Uint64(payload[16*i+8:])),
		}
	}
	return batch, nil
}

// RecordOverhead is the framing cost per record in bytes.
const RecordOverhead = recordHeaderSize

// NextRecord splits the first framed record off data, returning its payload
// (aliasing data, not copied) and the remaining bytes. Errors: ErrTruncated
// when data ends inside the header or payload (a torn tail — len(data) may
// be zero to mean "no more records", which also reports ErrTruncated with
// rest empty), ErrBadRecord when the fingerprint check fails, ErrBadConfig
// when the length field exceeds MaxRecordLen.
func NextRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < recordHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes of record header, want %d",
			ErrTruncated, len(data), recordHeaderSize)
	}
	n := binary.LittleEndian.Uint32(data)
	if n > MaxRecordLen {
		return nil, nil, fmt.Errorf("%w: record length %d exceeds %d", ErrBadConfig, n, MaxRecordLen)
	}
	want := binary.LittleEndian.Uint64(data[4:])
	end := recordHeaderSize + int(n)
	if len(data) < end {
		return nil, nil, fmt.Errorf("%w: record promises %d payload bytes, %d remain",
			ErrTruncated, n, len(data)-recordHeaderSize)
	}
	payload = data[recordHeaderSize:end]
	if fnv1a(payload) != want {
		return nil, nil, fmt.Errorf("%w: %d-byte record", ErrBadRecord, n)
	}
	return payload, data[end:], nil
}
