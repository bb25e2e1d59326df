package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"

	"repro/internal/objstore"
	"repro/internal/sim"
)

// Service is the server side of the HTTP backend: the regshared
// result service. It exposes one sim.Runner — with whatever executor
// and stores the operator configured — over the execution endpoints
//
//	POST /v1/run           one sim.Request in, one sim.Result out
//	POST /v1/stream        {"requests":[...]} in, NDJSON completion
//	                       events out, mirroring sim.Stream, closed by
//	                       a {"done":true,"events":N} trailer
//	GET  /v1/results/{key} a completed result straight from the sharded
//	                       on-disk store, by sim.Key of the canonical
//	                       request
//
// and the observability endpoints
//
//	GET /metrics             service counters, gauges and per-endpoint
//	                         latency aggregates (MetricsSnapshot)
//	GET /v1/requests/recent  the last-N finished requests' stage-stamped
//	                         RequestMetrics, newest first (?n= to trim)
//
// Execution requests pass a bounded admission gate first: at most
// max-inflight execute, at most max-queue wait (dequeued round-robin
// across clients, so one client's sweep cannot starve another), and
// everything beyond that is refused with 429 + Retry-After. Result and
// metrics reads bypass admission — they cost a map lookup, and an
// operator diagnosing an overloaded service needs /metrics to answer
// precisely then.
//
// Requests execute (and deduplicate, and cache) exactly as they would
// in-process, so a result served over the wire is bit-identical to a
// local run of the same request.
type Service struct {
	runner *sim.Runner
	store  *sim.Store
	met    *metrics
	adm    *admission

	recentN     int
	maxInflight int
	maxQueue    int
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithAdmission bounds the service's execution concurrency and queue.
// maxInflight < 1 selects the default (4×GOMAXPROCS, min 16);
// maxQueue < 0 disables waiting entirely (reject beyond maxInflight).
func WithAdmission(maxInflight, maxQueue int) ServiceOption {
	return func(s *Service) {
		s.maxInflight = maxInflight
		s.maxQueue = maxQueue
	}
}

// WithRecent sizes the /v1/requests/recent ring buffer (default 256).
func WithRecent(n int) ServiceOption {
	return func(s *Service) {
		if n > 0 {
			s.recentN = n
		}
	}
}

// NewService wraps runner. store may be nil: /v1/results then answers
// 404 for every key. When the runner was built with the same store
// (sim.WithStore), every /v1/run result becomes fetchable by key.
func NewService(runner *sim.Runner, store *sim.Store, opts ...ServiceOption) *Service {
	s := &Service{
		runner:   runner,
		store:    store,
		recentN:  256,
		maxQueue: 1024,
	}
	for _, o := range opts {
		o(s)
	}
	s.met = newMetrics(s.recentN)
	s.adm = newAdmission(s.maxInflight, s.maxQueue)
	return s
}

// Handler returns the service's routing handler. Every response carries
// the service's simulator identity, so clients can refuse to mix
// results from a version-skewed server (see simverHeader).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/requests/recent", s.handleRecent)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(simverHeader, sim.Version())
		mux.ServeHTTP(w, r)
	})
}

// clientHeader lets a client name itself for admission fairness and the
// per-request metrics; without it the remote host stands in.
const clientHeader = "X-Client"

// clientID resolves the submitter identity admission keys on.
func clientID(r *http.Request) string {
	if c := r.Header.Get(clientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// wireEvent is the NDJSON form of one sim.Event on /v1/stream.
//
//repro:wire
type wireEvent struct {
	Index        int         `json:"index"`
	Key          string      `json:"key,omitempty"`
	Bench        string      `json:"bench"`
	Source       string      `json:"source,omitempty"`
	CyclesPerSec float64     `json:"cycles_per_sec,omitempty"`
	Result       *sim.Result `json:"result,omitempty"`
	Error        string      `json:"error,omitempty"`
	Kind         string      `json:"error_kind,omitempty"`
}

// streamTrailer is the terminal NDJSON line of a complete /v1/stream
// response: {"done":true,"events":N}. Its absence is the one reliable
// sign of truncation — without it, a stream cut by a dying server or a
// broken proxy is byte-indistinguishable from a short but complete one.
//
//repro:wire
type streamTrailer struct {
	Done   bool `json:"done"`
	Events int  `json:"events"`
}

// toWire flattens a completion event for the stream. A non-finite rate
// (which JSON cannot encode — the whole event would be dropped from the
// stream) degrades to zero, the same "rate unknown" value store hits
// report.
func toWire(ev sim.Event) wireEvent {
	cps := ev.CyclesPerSec
	if math.IsInf(cps, 0) || math.IsNaN(cps) {
		cps = 0
	}
	we := wireEvent{
		Index:        ev.Index,
		Key:          ev.Key,
		Bench:        ev.Req.Bench,
		CyclesPerSec: cps,
		Result:       ev.Res,
	}
	if ev.Err != nil {
		we.Error = ev.Err.Error()
		we.Kind = errorKind(ev.Err)
	} else {
		we.Source = ev.Source.String()
	}
	return we
}

// maxRequestBody bounds request decoding; a sim.Request is a few KB,
// a stream batch of thousands still comfortably fits.
const maxRequestBody = 16 << 20

// admit runs the request's track through the admission gate, writing
// the 429 (queue full, with Retry-After) or 503 (canceled while
// waiting) response itself on refusal. A true return means the caller
// holds an execution slot and must release it.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, t *track) bool {
	s.met.queued(t)
	if err := s.adm.acquire(r.Context(), t.rm.Client); err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrOverloaded) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter()))
		}
		writeError(w, status, errorKind(err), err.Error())
		s.met.finish(t, status, 0)
		return false
	}
	s.met.dispatched(t)
	return true
}

// handleRun executes one request synchronously.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	t := s.met.accept(epRun, clientID(r))
	var req sim.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, kindBadConfig, fmt.Sprintf("decoding request body: %v", err))
		s.met.finish(t, http.StatusBadRequest, 0)
		return
	}
	t.rm.Bench = req.Bench
	if !s.admit(w, r, t) {
		return
	}
	defer s.adm.release()

	// Stream-of-one instead of Run: the completion event carries the
	// provenance (simulated / memory / store) the metrics record.
	var ev sim.Event
	_, err := s.runner.Stream(r.Context(), []sim.Request{req}, func(e sim.Event) { ev = e })
	if err != nil {
		s.met.settled(t, "")
		status := statusFor(err)
		writeError(w, status, errorKind(err), err.Error())
		s.met.finish(t, status, 0)
		return
	}
	t.rm.Key = ev.Key
	s.met.settled(t, ev.Source.String())
	writeJSON(w, ev.Res)
	s.met.finish(t, http.StatusOK, ev.Res.S.Cycles)
}

// handleStream executes a batch, streaming one NDJSON event per request
// as it settles — the wire mirror of sim.Stream — and closes a complete
// stream with the {"done":true,"events":N} trailer. Per-request
// failures ride inside their events; the response status is already 200
// by then. The whole batch holds one admission slot: admission is a
// per-connection gate, fairness across interleaved batches comes from
// the runner's own scheduling.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	t := s.met.accept(epStream, clientID(r))
	var body struct {
		Requests []sim.Request `json:"requests"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, kindBadConfig, fmt.Sprintf("decoding request body: %v", err))
		s.met.finish(t, http.StatusBadRequest, 0)
		return
	}
	if !s.admit(w, r, t) {
		return
	}
	defer s.adm.release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Stream serializes sink calls, so the encoder needs no extra lock.
	// The first failed write means the client is gone; later events are
	// drained without touching the dead connection, and the stream ends
	// early rather than resuming mid-sequence with silent gaps — the
	// missing trailer below is what tells the client.
	var encErr error
	events := 0
	var cycles uint64
	s.runner.Stream(r.Context(), body.Requests, func(ev sim.Event) {
		if encErr != nil {
			return
		}
		if encErr = enc.Encode(toWire(ev)); encErr != nil {
			return
		}
		events++
		if ev.Res != nil {
			cycles += ev.Res.S.Cycles
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
	s.met.settled(t, "")
	t.rm.Events = events
	if encErr == nil {
		// Every event reached the wire: seal the stream. A failed
		// trailer write is the same dead client the comment above
		// covers — and the absent trailer already says "truncated".
		_ = enc.Encode(streamTrailer{Done: true, Events: events})
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.met.finish(t, http.StatusOK, cycles)
}

// handleResult serves a stored result by its sim.Key — the key of the
// canonical request, since the runner stores gen: workloads under
// workloads.CanonicalName. A miss is 404 with kind "not_found" — an
// un-run key is a plain miss, not a fault.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	t := s.met.accept(epResults, clientID(r))
	key := r.PathValue("key")
	t.rm.Key = key
	if s.store == nil {
		writeError(w, http.StatusNotFound, kindNotFound, "no result store configured")
		s.met.finish(t, http.StatusNotFound, 0)
		return
	}
	res, ok := s.store.Load(r.Context(), key)
	if !ok {
		writeError(w, http.StatusNotFound, kindNotFound, fmt.Sprintf("no stored result for key %q", key))
		s.met.finish(t, http.StatusNotFound, 0)
		return
	}
	s.met.settled(t, sim.SourceStore.String())
	writeJSON(w, res)
	s.met.finish(t, http.StatusOK, res.S.Cycles)
}

// handleMetrics serves the service counters snapshot.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var tier objstore.TierStats
	if s.store != nil {
		tier = s.store.TierStats()
	}
	writeJSON(w, s.met.snapshot(s.runner.Counters(), s.adm.depth(), tier))
}

// handleRecent serves the last-N finished requests, newest first.
func (s *Service) handleRecent(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, kindBadConfig, fmt.Sprintf("bad n %q: want a positive integer", q))
			return
		}
		n = v
	}
	writeJSON(w, s.met.recent(n))
}

// statusFor maps the sim error taxonomy onto HTTP statuses: client
// mistakes are 400s, a cancellation (the server shutting down, or the
// client going away mid-run) is 503, an admission refusal 429.
func statusFor(err error) int {
	switch {
	case errors.Is(err, sim.ErrUnknownBenchmark), errors.Is(err, sim.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, sim.ErrCanceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the service's JSON error shape.
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client hung up; there is no one left to
	// report the error to.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "error_kind": kind})
}

// writeJSON emits v as the 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
