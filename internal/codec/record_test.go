package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/stream"
)

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, []byte("a much longer third record payload")}
	var buf []byte
	for _, p := range payloads {
		buf = AppendRecord(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = NextRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last record", len(rest))
	}
	if _, _, err := NextRecord(rest); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty tail: err = %v, want ErrTruncated", err)
	}
}

// TestRecordTornTail: every strict prefix of a record sequence decodes its
// complete records and then reports ErrTruncated, never ErrBadRecord — the
// crash-frontier contract journal recovery relies on.
func TestRecordTornTail(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, []byte("complete record"))
	whole := len(buf)
	buf = AppendRecord(buf, []byte("torn record"))
	for cut := whole; cut < len(buf); cut++ {
		first, rest, err := NextRecord(buf[:cut])
		if err != nil || !bytes.Equal(first, []byte("complete record")) {
			t.Fatalf("cut %d: first record unreadable: %v", cut, err)
		}
		if _, _, err := NextRecord(rest); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: torn tail err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestRecordCorruptPayload(t *testing.T) {
	buf := AppendRecord(nil, []byte("payload under test"))
	for bit := 0; bit < 8; bit++ {
		c := bytes.Clone(buf)
		c[RecordOverhead+3] ^= 1 << bit // flip payload bits
		if _, _, err := NextRecord(c); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("bit %d: err = %v, want ErrBadRecord", bit, err)
		}
	}
}

func TestRecordInsaneLength(t *testing.T) {
	buf := AppendRecord(nil, []byte("x"))
	buf[0], buf[1], buf[2], buf[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := NextRecord(buf); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig for an insane length", err)
	}
}

// TestUpdatesRoundTrip pins the (index, delta) pair layout the journal and the
// ingest frames share, and the refusal of a ragged payload.
func TestUpdatesRoundTrip(t *testing.T) {
	batch := []stream.Update{{Index: 0, Delta: 1}, {Index: 1 << 40, Delta: -7}, {Index: 3, Delta: -1 << 62}}
	payload := AppendUpdates(nil, batch)
	if len(payload) != 16*len(batch) || payload[16] != 0 || payload[21] != 1 || payload[24] != 0xF9 {
		t.Fatalf("payload layout % x", payload)
	}
	got, err := DecodeUpdates(payload)
	if err != nil || !reflect.DeepEqual(got, batch) {
		t.Fatalf("DecodeUpdates = %v, %v; want %v", got, err, batch)
	}
	if _, err := DecodeUpdates(payload[:17]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ragged payload err = %v, want ErrTruncated", err)
	}
}
