package sketchd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/codec"
	"repro/internal/engine"
)

// Registry-level sentinels. Together with the codec merge/decode sentinels
// and engine.PartialResultError these are the whole error vocabulary that
// crosses the wire.
var (
	// ErrNotFound means the {tenant, name} pair is not registered.
	ErrNotFound = errors.New("sketchd: sketch not found")
	// ErrExists means Create hit an already-registered {tenant, name}.
	ErrExists = errors.New("sketchd: sketch already exists")
	// ErrPartialResult is the client-side identity for a server answer
	// degraded by a quarantined engine replica (the wire projection of
	// engine.PartialResultError). Retryable: the server heals itself from
	// its checkpoint store at the next quiesce barrier.
	ErrPartialResult = errors.New("sketchd: partial result (server lost replicas and has not yet recovered)")
	// ErrNotDurable means the server accepted the request but could not make
	// it durable (journal append or checkpoint failure) and self-heal
	// failed. The in-memory result is still exact.
	ErrNotDurable = errors.New("sketchd: accepted but not durable")
)

// Code is the stable machine-readable error code carried in the JSON error
// envelope. Codes are wire contract: never rename, only append.
type Code string

const (
	CodeBadRequest         Code = "bad_request"
	CodeBadFrame           Code = "bad_frame"
	CodeBadSketchBytes     Code = "bad_sketch_bytes"
	CodeNotFound           Code = "not_found"
	CodeAlreadyExists      Code = "already_exists"
	CodeSeedMismatch       Code = "seed_mismatch"
	CodeConfigMismatch     Code = "config_mismatch"
	CodeNilMerge           Code = "nil_merge"
	CodeUnsupportedVersion Code = "unsupported_wire_version"
	CodePartialResult      Code = "partial_result"
	CodeNotDurable         Code = "not_durable"
	CodeUnavailable        Code = "unavailable"
	CodeInternal           Code = "internal"
)

// Error is the typed, structured error of the serving tier: what the server
// serializes into the JSON envelope and what the client reconstructs from
// it. Unwrap maps the code back onto the repository's sentinel taxonomy, so
// errors.Is(err, streamsample.ErrSeedMismatch) holds on both sides of the
// wire.
type Error struct {
	Code      Code   `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	status    int
}

func (e *Error) Error() string {
	return fmt.Sprintf("sketchd: %s: %s", e.Code, e.Message)
}

// HTTPStatus reports the status the envelope travels under.
func (e *Error) HTTPStatus() int {
	if e.status != 0 {
		return e.status
	}
	return statusFor(e.Code)
}

// Unwrap projects the wire code back onto the sentinel it encodes.
func (e *Error) Unwrap() error {
	switch e.Code {
	case CodeSeedMismatch:
		return codec.ErrSeedMismatch
	case CodeConfigMismatch:
		return codec.ErrConfigMismatch
	case CodeNilMerge:
		return codec.ErrNilMerge
	case CodeNotFound:
		return ErrNotFound
	case CodeAlreadyExists:
		return ErrExists
	case CodeUnsupportedVersion:
		return ErrVersionNegotiation
	case CodePartialResult:
		return ErrPartialResult
	case CodeNotDurable:
		return ErrNotDurable
	case CodeBadFrame:
		return ErrBadFrame
	default:
		return nil
	}
}

// statusFor is the canonical code → HTTP status mapping.
func statusFor(c Code) int {
	switch c {
	case CodeBadRequest, CodeBadFrame, CodeBadSketchBytes, CodeNilMerge:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeAlreadyExists, CodeSeedMismatch, CodeConfigMismatch:
		return http.StatusConflict
	case CodeUnsupportedVersion:
		return http.StatusUpgradeRequired
	case CodePartialResult, CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeNotDurable:
		return http.StatusInsufficientStorage
	default:
		return http.StatusInternalServerError
	}
}

// Classify folds any error of the serving paths onto its wire Error:
// the typed sentinel taxonomy of the codec, engine, and registry layers
// each get their stable code and status; anything unrecognized is an
// opaque 500 — but every KNOWN failure mode crosses the wire structured,
// never as an opaque string match.
func Classify(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	code := CodeInternal
	retryable := false
	var pre *engine.PartialResultError
	switch {
	case errors.Is(err, ErrNotFound):
		code = CodeNotFound
	case errors.Is(err, ErrExists):
		code = CodeAlreadyExists
	case errors.Is(err, ErrVersionNegotiation):
		code = CodeUnsupportedVersion
	case errors.Is(err, codec.ErrSeedMismatch):
		code = CodeSeedMismatch
	case errors.Is(err, codec.ErrConfigMismatch):
		code = CodeConfigMismatch
	case errors.Is(err, codec.ErrNilMerge):
		code = CodeNilMerge
	case errors.As(err, &pre):
		code, retryable = CodePartialResult, true
	case errors.Is(err, ErrNotDurable):
		code = CodeNotDurable
	case errors.Is(err, ErrBadFrame):
		code = CodeBadFrame
	case errors.Is(err, codec.ErrBadMagic), errors.Is(err, codec.ErrBadVersion),
		errors.Is(err, codec.ErrBadKind), errors.Is(err, codec.ErrBadConfig),
		errors.Is(err, codec.ErrBadFingerprint), errors.Is(err, codec.ErrTruncated),
		errors.Is(err, codec.ErrTrailingData), errors.Is(err, codec.ErrBadRecord):
		code = CodeBadSketchBytes
	}
	return &Error{Code: code, Message: err.Error(), Retryable: retryable, status: statusFor(code)}
}

// envelope is the JSON error body: {"error": {code, message, retryable}}.
type envelope struct {
	Error *Error `json:"error"`
}

// writeError serializes err as the envelope under its mapped status.
func writeError(w http.ResponseWriter, err error) {
	se := Classify(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.HTTPStatus())
	//nolint:errcheck // the response write has no further error channel
	_ = json.NewEncoder(w).Encode(envelope{Error: se})
}

// decodeError rebuilds the typed error from a non-2xx response. A body that
// is not a valid envelope (a proxy error page, a crash) degrades to a
// generic Error whose retryability follows the status class, so the
// client's retry loop still behaves.
func decodeError(status int, body io.Reader) error {
	data, _ := io.ReadAll(io.LimitReader(body, 64<<10))
	var env envelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.status = status
		return env.Error
	}
	return &Error{
		Code:      CodeInternal,
		Message:   fmt.Sprintf("HTTP %d: %s", status, truncate(string(data), 200)),
		Retryable: status >= 500,
		status:    status,
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
