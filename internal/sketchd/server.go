package sketchd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	streamsample "repro"
)

// Server is the HTTP face of the registry. It is an http.Handler; wiring it
// to a listener, TLS, timeouts and shutdown is the caller's business
// (cmd/sketchd wires the production shape).
//
// Endpoint surface (all bodies JSON unless noted):
//
//	PUT    /v1/tenants/{tenant}/sketches/{name}             create (body: Spec)
//	GET    /v1/tenants/{tenant}/sketches/{name}             spec + info
//	DELETE /v1/tenants/{tenant}/sketches/{name}             delete + wipe state
//	POST   /v1/tenants/{tenant}/sketches/{name}/updates     raw-update frames (codec records, streamed)
//	POST   /v1/tenants/{tenant}/sketches/{name}/sketches    one serialized sketch (?durable=1 seals first)
//	GET    /v1/tenants/{tenant}/sketches/{name}/sample      draw the sample / heavy-hitter report
//	GET    /v1/tenants/{tenant}/sketches/{name}/bytes       merged sketch, wire format (octet-stream)
//	POST   /v1/tenants/{tenant}/sketches/{name}/checkpoint  force a durable seal
//	GET    /v1/sketches                                     list registered sketches
//	GET    /v1/negotiate                                    wire-version negotiation probe
//	GET    /statsz                                          registry + per-sketch engine stats
//	GET    /healthz                                         liveness
//
// The ingest and byte-shipping endpoints negotiate the wire format: the
// client's X-Sketch-Wire-Versions offer resolves against
// SupportedWireVersions and the chosen version is echoed in
// X-Sketch-Wire-Version, or the request dies with the typed 426 envelope.
type Server struct {
	reg *Registry
	mux *http.ServeMux
}

// NewServer wraps a registry in its HTTP surface.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/sketches/{name}", s.handleCreate)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sketches/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/sketches/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sketches/{name}/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sketches/{name}/sketches", s.handleSketchUpload)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sketches/{name}/sample", s.handleSample)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sketches/{name}/bytes", s.handleBytes)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sketches/{name}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/sketches", s.handleList)
	s.mux.HandleFunc("GET /v1/negotiate", s.handleNegotiate)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//nolint:errcheck // the response write has no further error channel
	_ = json.NewEncoder(w).Encode(v)
}

// negotiate resolves the request's wire-version offer, stamps the chosen
// version on the response, and reports whether the request may proceed.
func (s *Server) negotiate(w http.ResponseWriter, r *http.Request) (uint16, bool) {
	v, err := Negotiate(r.Header.Get(HeaderWireVersions))
	if err != nil {
		writeError(w, err)
		return 0, false
	}
	w.Header().Set(HeaderWireVersion, strconv.Itoa(int(v)))
	return v, true
}

func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, err := s.reg.Get(r.PathValue("tenant"), r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return e, true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil {
		writeError(w, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("parsing spec body: %v", err)})
		return
	}
	if err := s.reg.Create(r.PathValue("tenant"), r.PathValue("name"), spec); err != nil {
		if errors.Is(err, errBadSpec) {
			writeError(w, &Error{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("tenant"), r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleUpdates streams raw-update frames off the request body into the
// sketch's engine. The response reports how much was accepted; any frame
// error aborts the stream with a typed envelope — but frames already
// accepted stay accepted (and journaled), which the response's counters
// make visible so a retrying client can reason about what landed.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.negotiate(w, r); !ok {
		return
	}
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	fr := NewFrameReader(r.Body, e.spec.N)
	var frames, updates int64
	for {
		batch, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, err)
			return
		}
		if len(batch) == 0 {
			continue
		}
		if err := e.IngestRaw(batch); err != nil {
			writeError(w, err)
			return
		}
		frames++
		updates += int64(len(batch))
		// Per accepted batch, alongside the per-entry counter — a stream
		// that dies mid-request must leave registry and per-sketch
		// raw_updates in agreement on /statsz.
		s.reg.rawUpdates.Add(int64(len(batch)))
	}
	writeJSON(w, http.StatusOK, map[string]int64{"frames": frames, "updates": updates})
}

// handleSketchUpload folds one serialized sketch through the merge tree.
// ?durable=1 forces a checkpoint seal before the 200. The response's
// "sealed" field reports whether a durable seal actually happened: on a
// registry without a durable dir the seal is a no-op, and the ACK must not
// imply the upload survives SIGKILL when it doesn't.
//
// Every sketch of the entry's spec marshals to exactly the length of its
// zero-state template, so the body is read to one byte past that length and
// a longer one is refused before Load sees it.
func (s *Server) handleSketchUpload(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.negotiate(w, r); !ok {
		return
	}
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	limit := int64(len(e.specBytes))
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		writeError(w, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("reading sketch body: %v", err)})
		return
	}
	if int64(len(data)) > limit {
		writeError(w, &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("sketch body longer than the %d bytes every sketch of this spec marshals to", limit)})
		return
	}
	durable := r.URL.Query().Get("durable") == "1"
	sealed, err := e.IngestSketch(data, durable, s.reg.cfg.UploadCheckpointEvery)
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.sketchUploads.Add(1)
	writeJSON(w, http.StatusOK, map[string]bool{"accepted": true, "sealed": sealed})
}

// SampleResult is the /sample response: the kind's projection of the merged
// sketch's query surface, from the library's kind table.
type SampleResult struct {
	Kind string `json:"kind"`
	streamsample.Answer
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	// Negotiated like the ingest paths even though the response is JSON:
	// the data plane speaks with one voice, so a client whose offer is
	// rejected on push cannot half-work by querying.
	if _, ok := s.negotiate(w, r); !ok {
		return
	}
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	merged, err := e.Merged()
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.queries.Add(1)
	writeJSON(w, http.StatusOK, SampleResult{Kind: e.spec.Kind, Answer: streamsample.Query(merged)})
}

// handleBytes ships the merged sketch in the wire format — the endpoint a
// higher aggregation tier (or a test asserting byte-identical recovery)
// pulls from. Negotiated like the ingest paths: the bytes ARE a codec
// version.
func (s *Server) handleBytes(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.negotiate(w, r); !ok {
		return
	}
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	merged, err := e.Merged()
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.queries.Add(1)
	blob, err := merged.MarshalBinary()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	//nolint:errcheck // the response write has no further error channel
	_, _ = w.Write(blob)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	if err := e.Checkpoint(); err != nil {
		writeError(w, err)
		return
	}
	// sealed is honest: a non-durable registry's checkpoint is a no-op.
	writeJSON(w, http.StatusOK, map[string]bool{"sealed": e.durableBacked()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sketches": s.reg.List()})
}

// handleNegotiate is the standalone negotiation probe: a client can resolve
// the wire version once, up front, instead of per request.
func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	v, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":   v,
		"supported": SupportedWireVersions,
	})
}

// Statsz is the /statsz document.
type Statsz struct {
	Registry RegistryStats `json:"registry"`
	Sketches []SketchStats `json:"sketches"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	reg, per := s.reg.Statsz()
	writeJSON(w, http.StatusOK, Statsz{Registry: reg, Sketches: per})
}
