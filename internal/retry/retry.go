// Package retry implements capped, jittered exponential backoff for the
// transient failures of the durability layer and the serving tier:
// checkpoint-store I/O (internal/checkpoint) and the sketchd client's
// requests (internal/sketchd). The policy is
// deliberately small — attempts, base, cap, jitter — because every caller in
// this repository wants the same shape: try a handful of times with growing
// pauses, stop immediately on context cancellation or a permanent error, and
// report the last failure with the attempt count attached.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Policy tunes one retry loop. The zero value selects the defaults: 4
// attempts, 1ms base delay doubling per attempt, capped at 250ms, with 50%
// jitter.
type Policy struct {
	// Attempts is the total number of tries, including the first (default 4;
	// values below 1 mean the default).
	Attempts int
	// Base is the delay before the second attempt; it doubles per attempt
	// (default 1ms).
	Base time.Duration
	// Cap bounds the grown delay (default 250ms).
	Cap time.Duration
	// Jitter is the fraction of each delay that is randomized — delay is
	// drawn uniformly from [d·(1−Jitter/2), d·(1+Jitter/2)] — so a fleet of
	// retriers does not thundering-herd a recovering disk or peer (default
	// 0.5; set negative for none).
	Jitter float64
	// Rand supplies the jitter draw in [0,1); nil uses math/rand/v2. Tests
	// inject a deterministic source here.
	Rand func() float64
	// Sleep replaces the inter-attempt wait; nil uses a context-aware timer
	// sleep. Tests inject a recorder here.
	Sleep func(context.Context, time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.Attempts < 1 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 250 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// permanentError marks a failure that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately instead of burning the
// remaining attempts — for failures retrying cannot fix (corrupt bytes, a
// closed store, invalid arguments). Do unwraps the marker before returning,
// so callers never see it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs op up to p.Attempts times, sleeping the backoff schedule between
// failures. It stops early when op succeeds, returns a Permanent-wrapped
// error, or ctx is done (the context error is attached). The returned error
// wraps op's last failure, so errors.Is/As dispatch through it.
func Do(ctx context.Context, p Policy, op func() error) error {
	p = p.withDefaults()
	var last error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			if err := p.Sleep(ctx, p.delay(attempt)); err != nil {
				return fmt.Errorf("retry: giving up after %d attempts: %w (wait: %v)", attempt, last, err)
			}
		}
		err := op()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		last = err
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("retry: giving up after %d attempts: %w (context: %v)", attempt+1, last, ctx.Err())
		}
	}
	if p.Attempts == 1 {
		return last
	}
	return fmt.Errorf("retry: giving up after %d attempts: %w", p.Attempts, last)
}

// delay is the backoff before the given attempt (attempt ≥ 1): Base·2^(a−1)
// capped at Cap, jittered.
func (p Policy) delay(attempt int) time.Duration {
	d := p.Base
	for i := 1; i < attempt && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	if p.Jitter > 0 {
		f := 1 - p.Jitter/2 + p.Jitter*p.Rand()
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
