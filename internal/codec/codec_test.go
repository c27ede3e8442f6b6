package codec

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(KindL0Sampler)
	e.U64(42)
	e.F64(0.25)
	e.I64(-7)
	e.Bool(true)
	e.SealHeader()
	e.U64(99)

	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindL0Sampler {
		t.Fatalf("kind = %v, want KindL0Sampler", d.Kind())
	}
	if got := d.U64(); got != 42 {
		t.Fatalf("U64 = %d, want 42", got)
	}
	if got := d.F64(); got != 0.25 {
		t.Fatalf("F64 = %v, want 0.25", got)
	}
	if got := d.I64(); got != -7 {
		t.Fatalf("I64 = %d, want -7", got)
	}
	if !d.Bool() {
		t.Fatal("Bool = false, want true")
	}
	if err := d.VerifyHeader(); err != nil {
		t.Fatalf("VerifyHeader: %v", err)
	}
	if got := d.U64(); got != 99 {
		t.Fatalf("payload U64 = %d, want 99", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestFloatBitsExact(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.1, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		e := NewEncoder(KindLpSampler)
		e.F64(v)
		d, err := NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got := d.F64(); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("F64 round-trip %v -> %v", v, got)
		}
	}
	// NaN must round-trip its payload bits too.
	e := NewEncoder(KindLpSampler)
	e.F64(math.NaN())
	d, _ := NewDecoder(e.Bytes())
	if got := d.F64(); !math.IsNaN(got) {
		t.Fatalf("NaN round-tripped to %v", got)
	}
}

func TestBadMagic(t *testing.T) {
	b := NewEncoder(KindL0Sampler).Bytes()
	b[0] ^= 0xFF
	if _, err := NewDecoder(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	b := NewEncoder(KindL0Sampler).Bytes()
	b[4] = 0xFF
	if _, err := NewDecoder(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewDecoder([]byte("LPS")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedBodySticks(t *testing.T) {
	e := NewEncoder(KindL0Sampler)
	e.U64(1)
	b := e.Bytes()
	d, err := NewDecoder(b[:len(b)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("truncated U64 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Sticky: further reads stay zero and keep the first error.
	if got := d.F64(); got != 0 {
		t.Fatalf("post-error F64 = %v, want 0", got)
	}
	if !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatalf("Finish = %v, want ErrTruncated", d.Finish())
	}
}

func TestFingerprintCatchesCorruption(t *testing.T) {
	e := NewEncoder(KindHeavyHitters)
	e.U64(1234)
	e.F64(0.5)
	e.SealHeader()
	good := e.Bytes()

	d, _ := NewDecoder(good)
	d.U64()
	d.F64()
	if err := d.VerifyHeader(); err != nil {
		t.Fatalf("clean header rejected: %v", err)
	}

	// Corrupt every header byte in turn: each flip must be caught.
	for i := 0; i < len(good)-8; i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		d, err := NewDecoder(bad)
		if err != nil {
			continue // magic/version corruption caught even earlier
		}
		d.U64()
		d.F64()
		if err := d.VerifyHeader(); !errors.Is(err, ErrBadFingerprint) {
			t.Fatalf("flip at %d: VerifyHeader = %v, want ErrBadFingerprint", i, err)
		}
	}
}

func TestTrailingData(t *testing.T) {
	e := NewEncoder(KindL0Sampler)
	e.U64(5)
	b := append(e.Bytes(), 0xAB)
	d, err := NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	d.U64()
	if err := d.Finish(); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("Finish = %v, want ErrTrailingData", err)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindLpSampler, KindL0Sampler, KindDuplicateFinder,
		KindHeavyHitters, KindTwoPassL0Sampler, KindFpEstimator}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty/duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if Kind(999).String() != "Kind(999)" {
		t.Fatalf("unknown kind name = %q", Kind(999).String())
	}
}

func TestFailInjectsStickyError(t *testing.T) {
	e := NewEncoder(KindTwoPassL0Sampler)
	e.U64(1)
	e.U64(2)
	d, err := NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d.U64()
	d.Fail(ErrBadConfig)
	if got := d.U64(); got != 0 {
		t.Fatalf("post-Fail read = %d, want 0", got)
	}
	if !errors.Is(d.Finish(), ErrBadConfig) {
		t.Fatalf("Finish = %v, want the injected ErrBadConfig", d.Finish())
	}
	// First failure wins.
	d.Fail(ErrTruncated)
	if !errors.Is(d.Err(), ErrBadConfig) {
		t.Fatalf("second Fail overwrote the first: %v", d.Err())
	}
}

func TestMergeSentinelsDistinct(t *testing.T) {
	sentinels := []error{ErrNilMerge, ErrSeedMismatch, ErrConfigMismatch}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}
}
