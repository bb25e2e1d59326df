package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// newTestService spins up the regshared service over a fresh runner
// backed by a store in a temp dir.
func newTestService(t *testing.T) (*httptest.Server, *sim.Store) {
	t.Helper()
	store := sim.NewStore(t.TempDir())
	runner := sim.New(sim.WithStore(store))
	ts := httptest.NewServer(NewService(runner, store).Handler())
	t.Cleanup(ts.Close)
	return ts, store
}

// TestServiceRunRoundTrip: POST /v1/run executes and returns the same
// result an in-process run produces, and the result lands in the
// service's store under the request's sim.Key — a gen: input included,
// whose key carries a '?'.
func TestServiceRunRoundTrip(t *testing.T) {
	ts, store := newTestService(t)
	ctx := context.Background()
	h := NewHTTP(ts.URL)
	defer h.Close()
	for _, bench := range []string{"crafty", "gen:spill?depth=4"} {
		req := smallReq(bench, 3000)
		want, err := sim.Simulate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Execute(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !resultsEqual(t, got, want) {
			t.Fatalf("%s: service result differs from in-process result", bench)
		}
		stored, ok := store.Load(ctx, sim.Key(req))
		if !ok {
			t.Fatalf("%s: no stored result under the request's key", bench)
		}
		if !resultsEqual(t, stored, want) {
			t.Fatalf("%s: stored result differs from in-process result", bench)
		}
	}
}

// TestRemovedRoutesStayClosed: the batch, stream, result-lookup and
// store-federation routes are gone. Each answers 404 or 405 — including
// a push of a real envelope with its result edited — and none of them
// changes the store: the only HTTP path that writes to it is the runner
// storing its own simulations.
func TestRemovedRoutesStayClosed(t *testing.T) {
	ts, store := newTestService(t)
	ctx := context.Background()
	h := NewHTTP(ts.URL)
	defer h.Close()
	req := smallReq("crafty", 3000)
	want, err := h.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	key := sim.Key(req)
	before, err := store.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env["result"].(map[string]any)["IPC"] = 99.0
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	syncBody, err := json.Marshal(map[string]any{"envelopes": []json.RawMessage{forged}})
	if err != nil {
		t.Fatal(err)
	}
	runsBody, err := json.Marshal(map[string]any{"requests": []sim.Request{smallReq("crafty", 3100)}})
	if err != nil {
		t.Fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(store.Path(key)), ".json")

	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/runs", runsBody},
		{http.MethodPost, "/v1/stream", runsBody},
		{http.MethodGet, "/v1/results/" + url.PathEscape(key), nil},
		{http.MethodPost, "/v1/sync", syncBody},
		{http.MethodGet, "/v1/store/" + name, nil},
		{http.MethodGet, "/v1/manifest", nil},
		{http.MethodGet, "/v1/manifest/node?path=0", nil},
		{http.MethodGet, "/v1/manifest/shard/" + name[:2], nil},
	} {
		hreq, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: got %s, want 404 or 405", c.method, c.path, resp.Status)
		}
	}

	after, err := store.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Root != before.Root {
		t.Errorf("store root moved from %s to %s", before.Root, after.Root)
	}
	if res, ok := store.Load(ctx, key); !ok || !resultsEqual(t, res, want) {
		t.Errorf("stored result for %s changed (ok=%v)", key, ok)
	}
}

// TestServiceErrorTaxonomy: service-side typed errors come back as
// status + (kind, message) and re-wrap into the sim sentinels on the
// client. A request that faults the simulator fails alone: the service
// answers 422 "sim_fault" and keeps serving.
func TestServiceErrorTaxonomy(t *testing.T) {
	ts, _ := newTestService(t)
	h := NewHTTP(ts.URL)
	defer h.Close()

	_, err := h.Execute(context.Background(), smallReq("no-such-bench", 3000))
	if !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	bad := smallReq("crafty", 3000)
	bad.Measure = 0
	_, err = h.Execute(context.Background(), bad)
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
	}
	faulty := smallReq("crafty", 3000)
	faulty.Config.NumALU = 0 // valid, but the core deadlocks
	_, err = h.Execute(context.Background(), faulty)
	if !errors.Is(err, sim.ErrSimFault) {
		t.Fatalf("got %v, want ErrSimFault", err)
	}

	// Raw status codes for non-Go clients. A body is exactly one request:
	// data after it, a second request included, is malformed too.
	type wireErr struct {
		Kind string `json:"error_kind"`
	}
	good, _ := json.Marshal(smallReq("crafty", 3000))
	for name, body := range map[string]string{
		"not json":      "{not json",
		"trailing junk": string(good) + "junk",
		"two requests":  string(good) + string(good),
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var we wireErr
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || we.Kind != kindBadConfig {
			t.Fatalf("%s: got %s kind %q (%v), want 400 %q", name, resp.Status, we.Kind, err, kindBadConfig)
		}
	}
	body, _ := json.Marshal(faulty)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var we wireErr
	err = json.NewDecoder(resp.Body).Decode(&we)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || we.Kind != kindSimFault {
		t.Fatalf("faulting request: got %s kind %q (%v), want 422 %q", resp.Status, we.Kind, err, kindSimFault)
	}

	if _, err := h.Execute(context.Background(), smallReq("crafty", 3000)); err != nil {
		t.Fatalf("good request after a fault: %v", err)
	}
}

// stubService is the service over a runner whose executor returns res
// for every request, so no request simulates.
func stubService(res sim.Result) *Service {
	runner := sim.New(sim.WithExecutor(func(context.Context, sim.Request) (*sim.Result, error) {
		r := res
		return &r, nil
	}))
	return NewService(runner, nil)
}

// FuzzRunBody: whatever bytes a client POSTs to /v1/run, the service
// answers 200 with a result, or 400 bad_config or unknown_benchmark:
// never a 5xx, never a panic.
func FuzzRunBody(f *testing.F) {
	stub := sim.Result{Bench: "stub", TrackerName: "unlimited", IPC: 1.25}
	compact, err := json.Marshal(smallReq("crafty", 3000))
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(smallReq("crafty", 3000), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	gen, err := json.Marshal(smallReq("gen:spill?depth=16&far=0.5", 3000))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(compact),
		string(indented),
		"{not json",
		string(compact) + "junk",
		string(compact) + string(compact),
		strings.Replace(string(compact), `"Warmup":200`, `"Warmup":"200"`, 1),
		string(gen),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		stubService(stub).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var res sim.Result
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res != stub {
				t.Fatalf("%q: 200 with %q (%v), want the stub's result", body, rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest:
			var we struct {
				Kind string `json:"error_kind"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || we.Kind != kindBadConfig && we.Kind != kindUnknownBenchmark {
				t.Fatalf("%q: 400 with %q (%v), want kind %s or %s", body, rec.Body.Bytes(), err, kindBadConfig, kindUnknownBenchmark)
			}
		default:
			t.Fatalf("%q: got %d %q, want 200 or 400", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestExecuteReusesItsConnection: Execute reads each response to its
// end, so sequential calls share one keep-alive connection. A call that
// left bytes unread would tear its connection down, and serve-warm
// would pay a TCP handshake per result.
func TestExecuteReusesItsConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(stubService(sim.Result{Bench: "stub"}).Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	h := NewHTTP(ts.URL)
	defer h.Close()
	for i := 0; i < 20; i++ {
		if _, err := h.Execute(context.Background(), smallReq("crafty", 3000)); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 sequential calls opened %d connections, want 1", n)
	}
}
