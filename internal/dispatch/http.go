package dispatch

import (
	"bufio"
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
	"time"

	"repro/internal/sim"
)

// ErrTruncatedStream marks a /v1/stream response that ended without its
// {"done":true,"events":N} trailer: the server died, a proxy cut the
// connection, or the service hit a write error mid-stream. The events
// received before the cut are valid — the sink already saw them — but
// the batch is incomplete, and callers must not treat it as a full
// result set.
var ErrTruncatedStream = errors.New("dispatch: stream truncated before its trailer")

// HTTP is the client backend for the regshared service: Execute POSTs
// the request to /v1/run and decodes the Result. The server side runs
// its own sim.Runner, so requests from many clients deduplicate and
// share one store there; the client-side runner's own dedup and stores
// still apply first, making the service a second, shared tier.
type HTTP struct {
	base     string
	client   *http.Client
	clientID string
}

// NewHTTP builds a client for the service at base (e.g.
// "http://host:8347"). No request timeout is set — simulations are
// legitimately long — so cancellation comes from the per-call context.
func NewHTTP(base string) *HTTP {
	return &HTTP{base: strings.TrimSuffix(base, "/"), client: &http.Client{}}
}

// SetClientID names this client to the service (the X-Client header):
// the identity admission fairness and the per-request metrics key on.
// Unset, the service falls back to the remote address. Set it before
// the first request; it is not safe to change concurrently with calls.
func (h *HTTP) SetClientID(id string) { h.clientID = id }

// newRequest builds a service request with the shared headers.
func (h *HTTP) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	req.Header.Set(simverHeader, sim.Version())
	if h.clientID != "" {
		req.Header.Set(clientHeader, h.clientID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// checkSimver refuses responses from a version-skewed server. When both
// sides carry a comparable (VCS-derived) simulator identity, a mismatch
// means the service runs different simulator code: its results are not
// this client's results, and caching them locally would poison the
// store's staleness check. Digest-fallback identities (go run, dirty
// trees) name a binary rather than the source, so different processes
// legitimately differ and are not comparable — the operator owns
// version discipline there.
func (h *HTTP) checkSimver(resp *http.Response) error {
	sv := resp.Header.Get(simverHeader)
	if comparableSimver(sv) && comparableSimver(sim.Version()) && sv != sim.Version() {
		return fmt.Errorf("dispatch: %s runs simulator version %s, this client is %s: refusing to mix results",
			h.base, sv, sim.Version())
	}
	return nil
}

// Execute runs req on the remote service.
func (h *HTTP) Execute(ctx context.Context, req sim.Request) (*sim.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding request: %w", err)
	}
	hreq, err := h.newRequest(ctx, http.MethodPost, "/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, canceledErr(req.Bench, ctxCause(ctx))
		}
		return nil, fmt.Errorf("dispatch: %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if err := h.checkSimver(resp); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("dispatch: decoding result from %s: %w", h.base, err)
	}
	// Drain the encoder's trailing newline so the connection returns to
	// the keep-alive pool instead of being torn down per request.
	io.Copy(io.Discard, resp.Body)
	return &res, nil
}

// StreamEvent is the client-side form of one /v1/stream completion
// event: the wire event with its (kind, message) error pair already
// reconstructed into the typed taxonomy.
type StreamEvent struct {
	Index        int
	Key          string
	Bench        string
	Source       string
	CyclesPerSec float64
	Result       *sim.Result
	Err          error
}

// Stream runs the batch on the remote service's /v1/stream, invoking
// sink (may be nil) with each completion event as its NDJSON line
// arrives, and returns the number of events received. A response that
// ends without the service's terminal trailer — the server shut down,
// the connection was cut, the service hit a mid-stream write error —
// returns ErrTruncatedStream (wrapped): the delivered events are valid
// but the batch is NOT complete, and a rerun resumes the remainder from
// the service's store. A local cancellation returns the usual
// sim.ErrCanceled wrap instead.
func (h *HTTP) Stream(ctx context.Context, reqs []sim.Request, sink func(StreamEvent)) (int, error) {
	body, err := json.Marshal(struct {
		Requests []sim.Request `json:"requests"`
	}{Requests: reqs})
	if err != nil {
		return 0, fmt.Errorf("dispatch: encoding request batch: %w", err)
	}
	hreq, err := h.newRequest(ctx, http.MethodPost, "/v1/stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return 0, canceledErr("stream", ctxCause(ctx))
		}
		return 0, fmt.Errorf("dispatch: %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if err := h.checkSimver(resp); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, decodeHTTPError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	seen := 0
	for sc.Scan() {
		// One probe shape decodes both event lines and the trailer.
		var line struct {
			wireEvent
			streamTrailer
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return seen, fmt.Errorf("dispatch: bad stream line from %s: %w", h.base, err)
		}
		if line.Done {
			if line.Events != seen {
				return seen, fmt.Errorf("dispatch: %s: trailer says %d events, received %d: %w",
					h.base, line.Events, seen, ErrTruncatedStream)
			}
			// Drain any keep-alive residue (there should be none).
			io.Copy(io.Discard, resp.Body)
			return seen, nil
		}
		seen++
		if sink != nil {
			sink(fromWire(line.wireEvent))
		}
	}
	if ctx.Err() != nil {
		return seen, canceledErr("stream", ctxCause(ctx))
	}
	if err := sc.Err(); err != nil {
		return seen, fmt.Errorf("dispatch: %s: reading stream: %w: %w", h.base, err, ErrTruncatedStream)
	}
	// Clean EOF without a trailer: the byte-indistinguishable truncation
	// the trailer exists to unmask.
	return seen, fmt.Errorf("dispatch: %s: stream ended after %d of %d events without a trailer: %w",
		h.base, seen, len(reqs), ErrTruncatedStream)
}

// Result fetches a stored result by key from GET /v1/results/{key}.
// key is sim.Key of the canonical request: the service's runner stores
// a gen: workload under workloads.CanonicalName, so a result run as
// "gen:chase?nodes=4096&seed=3" is fetched by the key of
// "gen:chase?seed=3". A miss returns an error wrapping ErrNotFound.
func (h *HTTP) Result(ctx context.Context, key string) (*sim.Result, error) {
	hreq, err := h.newRequest(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if err := h.checkSimver(resp); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("dispatch: decoding result from %s: %w", h.base, err)
	}
	io.Copy(io.Discard, resp.Body)
	return &res, nil
}

// Metrics fetches the service's GET /metrics snapshot.
func (h *HTTP) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	hreq, err := h.newRequest(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("dispatch: decoding metrics from %s: %w", h.base, err)
	}
	io.Copy(io.Discard, resp.Body)
	return &snap, nil
}

// Close releases idle connections.
func (h *HTTP) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

// fromWire reconstructs a client-side event from its NDJSON form.
func fromWire(we wireEvent) StreamEvent {
	ev := StreamEvent{
		Index:        we.Index,
		Key:          we.Key,
		Bench:        we.Bench,
		Source:       we.Source,
		CyclesPerSec: we.CyclesPerSec,
		Result:       we.Result,
	}
	if we.Error != "" {
		ev.Err = wireError(we.Kind, we.Error)
	}
	return ev
}

// overloadError carries a 429's Retry-After hint alongside the typed
// ErrOverloaded sentinel.
type overloadError struct {
	msg        string
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return e.msg }
func (e *overloadError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the service's Retry-After hint from an
// ErrOverloaded returned by this client, and reports whether one was
// present.
func RetryAfter(err error) (time.Duration, bool) {
	var oe *overloadError
	if errors.As(err, &oe) && oe.retryAfter > 0 {
		return oe.retryAfter, true
	}
	return 0, false
}

// decodeHTTPError turns a non-200 service response back into a typed
// error. Responses that are not the service's JSON error shape (a
// proxy's HTML, a truncated body) degrade to a status-code error.
func decodeHTTPError(resp *http.Response) error {
	var we struct {
		Error string `json:"error"`
		Kind  string `json:"error_kind"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &we); err == nil && we.Error != "" {
		if resp.StatusCode == http.StatusTooManyRequests {
			oe := &overloadError{msg: we.Error}
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				oe.retryAfter = time.Duration(s) * time.Second
			}
			return oe
		}
		return wireError(we.Kind, we.Error)
	}
	return fmt.Errorf("dispatch: service returned %s: %s", resp.Status, bytes.TrimSpace(data))
}
