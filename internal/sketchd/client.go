package sketchd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/retry"
	"repro/internal/stream"
)

// Client is the typed client of the serving tier — what cmd/sketchload
// speaks. It negotiates the wire version up front, turns
// error envelopes back into errors.Is-able sentinels, and transparently
// retries failures the envelope marks retryable (plus transport errors,
// which never carry an envelope). Safe for concurrent use.
type Client struct {
	base     string
	http     *http.Client
	retry    retry.Policy
	versions string // comma-joined offer sent on every negotiated request
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (tests, timeouts).
func WithHTTPClient(h *http.Client) ClientOption { return func(c *Client) { c.http = h } }

// WithRetryPolicy tunes the transparent retry loop.
func WithRetryPolicy(p retry.Policy) ClientOption { return func(c *Client) { c.retry = p } }

// WithWireVersions overrides the advertised version offer (tests drive the
// red path of negotiation with it).
func WithWireVersions(vs ...uint16) ClientOption {
	return func(c *Client) {
		toks := make([]string, len(vs))
		for i, v := range vs {
			toks[i] = strconv.Itoa(int(v))
		}
		c.versions = strings.Join(toks, ",")
	}
}

// NewClient builds a client for a sketchd at base ("http://host:port").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		http:  http.DefaultClient,
		retry: retry.Policy{},
	}
	WithWireVersions(SupportedWireVersions...)(c)
	for _, o := range opts {
		o(c)
	}
	return c
}

// Negotiate resolves the wire version against the server. Red negotiations
// surface as ErrVersionNegotiation through the envelope.
func (c *Client) Negotiate(ctx context.Context) (uint16, error) {
	var version uint16
	err := c.do(ctx, http.MethodGet, "/v1/negotiate", "", nil, func(resp *http.Response) error {
		var body struct {
			Version uint16 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		version = body.Version
		return nil
	})
	return version, err
}

// Create registers {tenant, name} with the given spec.
func (c *Client) Create(ctx context.Context, tenant, name string, spec Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPut, c.sketchPath(tenant, name), "application/json", body, nil)
}

// Delete unregisters {tenant, name} and wipes its durable state.
func (c *Client) Delete(ctx context.Context, tenant, name string) error {
	return c.do(ctx, http.MethodDelete, c.sketchPath(tenant, name), "", nil, nil)
}

// Info fetches the registered spec.
func (c *Client) Info(ctx context.Context, tenant, name string) (SketchInfo, error) {
	var info SketchInfo
	err := c.do(ctx, http.MethodGet, c.sketchPath(tenant, name), "", nil, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&info)
	})
	return info, err
}

// IngestResult reports what one ingest request landed.
type IngestResult struct {
	Frames  int64 `json:"frames"`
	Updates int64 `json:"updates"`
}

// PushUpdates streams raw update batches as codec frames. All batches
// travel in one request; the server ACKs with the accepted counts.
//
// Raw-update pushes are NOT transparently retried: the server ingests
// frames as they arrive, so a request that dies mid-stream may have landed
// a prefix and a blind resend would double-count it. Callers that need
// at-least-once semantics should push idempotent units (one batch per
// request) and retry those explicitly.
func (c *Client) PushUpdates(ctx context.Context, tenant, name string, batches ...[]stream.Update) (IngestResult, error) {
	var buf []byte
	for _, b := range batches {
		buf = AppendFrame(buf, b)
	}
	var res IngestResult
	err := c.once(ctx, http.MethodPost, c.sketchPath(tenant, name)+"/updates", "application/octet-stream", buf,
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&res)
		})
	return res, err
}

// PushSketch uploads one serialized sketch to be folded in. durable forces
// a checkpoint seal before the ACK. Sketch uploads are idempotent at the
// transport level only if the caller treats them so; the retry loop here
// retries ONLY when no 2xx was received AND the failure is marked retryable
// — a folded-but-lost-ACK upload can still double-fold, which is harmless
// for agreement tests that compare against the sum of what was ACKed, but
// callers needing exactly-once must dedupe upstream.
func (c *Client) PushSketch(ctx context.Context, tenant, name string, data []byte, durable bool) error {
	p := c.sketchPath(tenant, name) + "/sketches"
	if durable {
		p += "?durable=1"
	}
	return c.do(ctx, http.MethodPost, p, "application/octet-stream", data, nil)
}

// Sample draws from the merged sketch.
func (c *Client) Sample(ctx context.Context, tenant, name string) (SampleResult, error) {
	var res SampleResult
	err := c.do(ctx, http.MethodGet, c.sketchPath(tenant, name)+"/sample", "", nil,
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&res)
		})
	return res, err
}

// Bytes fetches the merged sketch in the wire format — ready for
// streamsample.Load, another tier's PushSketch, or a byte-identity
// assertion.
func (c *Client) Bytes(ctx context.Context, tenant, name string) ([]byte, error) {
	var blob []byte
	err := c.do(ctx, http.MethodGet, c.sketchPath(tenant, name)+"/bytes", "", nil,
		func(resp *http.Response) error {
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			blob = b
			return nil
		})
	return blob, err
}

// Checkpoint forces a durable seal of everything the sketch has accepted.
func (c *Client) Checkpoint(ctx context.Context, tenant, name string) error {
	return c.do(ctx, http.MethodPost, c.sketchPath(tenant, name)+"/checkpoint", "", nil, nil)
}

// Statsz fetches the observability document.
func (c *Client) Statsz(ctx context.Context) (Statsz, error) {
	var st Statsz
	err := c.do(ctx, http.MethodGet, "/statsz", "", nil, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	return st, err
}

func (c *Client) sketchPath(tenant, name string) string {
	return "/v1/tenants/" + url.PathEscape(tenant) + "/sketches/" + url.PathEscape(name)
}

// do runs one request through the retry loop: transport errors and
// envelope errors marked retryable are retried with backoff; typed
// non-retryable envelopes (mismatch, not-found, negotiation) fail fast as
// retry.Permanent.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, onOK func(*http.Response) error) error {
	return retry.Do(ctx, c.retry, func() error {
		err := c.once(ctx, method, path, contentType, body, onOK)
		if err == nil {
			return nil
		}
		var se *Error
		if errors.As(err, &se) && !se.Retryable {
			return retry.Permanent(err)
		}
		return err
	})
}

// once runs exactly one request. Non-2xx responses decode into the typed
// envelope error.
func (c *Client) once(ctx context.Context, method, path, contentType string, body []byte, onOK func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(HeaderWireVersions, c.versions)
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("sketchd client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp.StatusCode, resp.Body)
	}
	if onOK != nil {
		return onOK(resp)
	}
	return nil
}
