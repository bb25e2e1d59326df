package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/sim"
)

// HTTP is the client for the regshared service: Execute POSTs the
// request to /v1/run and decodes the Result. The server side runs
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

// Options returns the sim.New options that make h a runner's executor:
// Execute itself, plus a worker-pool width matching the service rather
// than this host. The service's capacity lives on the server (which
// gates with its own runner), so the client just needs enough requests
// in flight to keep a large remote pool fed — a local GOMAXPROCS gate
// on a laptop would idle a 64-worker service.
func (h *HTTP) Options() []sim.Option {
	return []sim.Option{
		sim.WithExecutor(h.Execute),
		sim.WithWorkers(max(16, 4*runtime.GOMAXPROCS(0))),
	}
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
		return wireError(we.Kind, we.Error)
	}
	return fmt.Errorf("dispatch: service returned %s: %s", resp.Status, bytes.TrimSpace(data))
}
