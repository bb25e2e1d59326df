package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"repro/internal/objstore"
	"repro/internal/sim"
)

// Service is the regshared result service. It exposes one sim.Runner —
// with whatever stores the operator configured — over one execution
// endpoint
//
//	POST /v1/run  one sim.Request in, one sim.Result out
//
// and the observability endpoints
//
//	GET /metrics             service counters, gauges and the run
//	                         endpoint's latency aggregate (MetricsSnapshot)
//	GET /v1/requests/recent  the last-N finished requests' stage-stamped
//	                         RequestMetrics, newest first (?n= to trim)
//
// Runs pass a bounded admission gate first: at most max-inflight
// execute, at most max-queue wait (dequeued round-robin across clients,
// so one client's sweep cannot starve another), and everything beyond
// that is refused with 429 + Retry-After. Metrics reads bypass
// admission — an operator diagnosing an overloaded service needs
// /metrics to answer precisely then.
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

// NewService wraps runner. store is the store the runner was built with
// (sim.WithStore), or nil when storage is off: /metrics reports its
// backend operation counters.
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

// maxRequestBody bounds request decoding; a sim.Request is a few KB.
const maxRequestBody = 16 << 20

// admit runs the request through the admission gate, writing the 429
// (queue full, with Retry-After) or 503 (canceled while waiting)
// response itself on refusal. A true return means the caller
// holds an execution slot and must release it.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, rm *RequestMetrics) bool {
	s.met.queued(rm)
	if err := s.adm.acquire(r.Context(), rm.Client); err != nil {
		c := classify(err)
		if c.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter()))
		}
		writeError(w, c.status, c.kind, err.Error())
		s.met.finish(rm, c.status, 0)
		return false
	}
	s.met.dispatched(rm)
	return true
}

// handleRun executes one request synchronously, on the handler's goroutine.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	rm := s.met.accept(clientID(r))
	// The body is exactly one request: data after it is an error, as
	// json.Unmarshal has it.
	var req sim.Request
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err == nil {
		err = requestJSON.Unmarshal(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, kindBadConfig, fmt.Sprintf("decoding request body: %v", err))
		s.met.finish(rm, http.StatusBadRequest, 0)
		return
	}
	rm.Bench = req.Bench
	if !s.admit(w, r, rm) {
		return
	}
	defer s.adm.release()

	// A Stream of one instead of Run: the completion event carries the
	// provenance (simulated / memory / store) the metrics record. A batch
	// of one runs on this handler's goroutine and starts none.
	var ev sim.Event
	_, err = s.runner.Stream(r.Context(), []sim.Request{req}, func(e sim.Event) { ev = e })
	if err != nil {
		s.met.settled(rm, "")
		c := classify(err)
		writeError(w, c.status, c.kind, err.Error())
		s.met.finish(rm, c.status, 0)
		return
	}
	rm.Key = ev.Key
	s.met.settled(rm, ev.Source.String())
	writeResult(w, ev.Res)
	s.met.finish(rm, http.StatusOK, ev.Res.S.Cycles)
}

// handleMetrics serves the service counters snapshot.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var tier objstore.TierStats
	if s.store != nil {
		tier = s.store.TierStats()
	}
	inFlight, queued := s.adm.depth()
	writeJSON(w, s.met.snapshot(s.runner.Counters(), inFlight, queued, tier))
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

// writeError emits the service's JSON error shape.
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client hung up; there is no one left to
	// report the error to.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "error_kind": kind})
}

// writeResult emits res as the 200 response: what a json.Encoder
// writes, json.Marshal's bytes and a newline, and, like it, no body for
// a result json.Marshal refuses.
func writeResult(w http.ResponseWriter, res *sim.Result) {
	w.Header().Set("Content-Type", "application/json")
	body, err := resultJSON.Append(make([]byte, 0, resultSize), res)
	if err == nil {
		// A failed write means the client hung up.
		_, _ = w.Write(append(body, '\n'))
	}
}

// writeJSON emits v as the 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
