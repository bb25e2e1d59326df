package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim"
)

// TestHistogramQuantiles pins the fixed-bucket histogram's contract:
// quantiles come back as the covering bucket's upper bound, never above
// the observed maximum, never below the true quantile.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 90 fast observations (~2µs) and 10 slow ones (~1ms).
	for range 90 {
		h.observe(2_000)
	}
	for range 10 {
		h.observe(1_000_000)
	}
	if h.count != 100 {
		t.Fatalf("count %d, want 100", h.count)
	}
	p50 := h.quantile(0.50)
	if p50 < 2_000 || p50 > 4_000 {
		t.Fatalf("p50 %dns, want the 2µs observation's bucket bound (2–4µs)", p50)
	}
	p99 := h.quantile(0.99)
	if p99 != 1_000_000 {
		// The covering bucket's bound is 1.048ms, clamped to the max.
		t.Fatalf("p99 %dns, want clamp to the observed max 1ms", p99)
	}
	if h.quantile(1.0) != h.maxNS {
		t.Fatalf("p100 %dns, want max %dns", h.quantile(1.0), h.maxNS)
	}

	var empty histogram
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

// TestServiceMetricsSnapshot: running the same cell twice exercises the
// full counter surface — one simulation, one in-memory hit, hit rate
// 0.5, delivered cycles credited for both — and the run endpoint's
// latency aggregate shows up with sane quantiles.
func TestServiceMetricsSnapshot(t *testing.T) {
	ts, _ := newTestService(t)
	ctx := context.Background()
	h := NewHTTP(ts.URL)
	defer h.Close()
	h.SetClientID("metrics-test")

	req := smallReq("crafty", 3000)
	first, err := h.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(ctx, req); err != nil {
		t.Fatal(err)
	}

	snap, err := h.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Accepted != 2 || snap.Completed != 2 || snap.Errors != 0 || snap.Rejected != 0 {
		t.Fatalf("counters: accepted %d completed %d errors %d rejected %d; want 2, 2, 0, 0",
			snap.Accepted, snap.Completed, snap.Errors, snap.Rejected)
	}
	if snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("gauges at rest: in-flight %d, queue %d; want 0, 0", snap.InFlight, snap.QueueDepth)
	}
	if snap.Simulated != 1 || snap.MemHits != 1 || snap.StoreHits != 0 {
		t.Fatalf("provenance: simulated %d mem %d store %d; want 1, 1, 0",
			snap.Simulated, snap.MemHits, snap.StoreHits)
	}
	if snap.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", snap.HitRate)
	}
	if want := 2 * first.S.Cycles; snap.CyclesDelivered != want {
		t.Fatalf("cycles delivered %d, want %d (both responses carry the result)", snap.CyclesDelivered, want)
	}
	if snap.CyclesPerSec <= 0 {
		t.Fatalf("cycles/sec %v, want > 0", snap.CyclesPerSec)
	}
	if snap.NowNS < snap.StartedNS {
		t.Fatalf("clock went backwards: started %d, now %d", snap.StartedNS, snap.NowNS)
	}

	var run *EndpointMetrics
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Endpoint == "run" {
			run = &snap.Endpoints[i]
		}
	}
	if run == nil {
		t.Fatalf("no run endpoint aggregate in %+v", snap.Endpoints)
	}
	if run.Requests != 2 || run.Errors != 0 {
		t.Fatalf("run endpoint: %d requests, %d errors; want 2, 0", run.Requests, run.Errors)
	}
	if run.P50NS <= 0 || run.P99NS < run.P50NS || run.MaxNS < run.P99NS {
		t.Fatalf("run quantiles not ordered: p50 %d p99 %d max %d", run.P50NS, run.P99NS, run.MaxNS)
	}
}

// TestEndpointErrorsOutliveTheRing: the run endpoint's error count
// covers the service's lifetime, like the request count beside it, not
// just the requests still in the /v1/requests/recent ring. A one-entry
// ring has already dropped the failed request when the snapshot is
// taken.
func TestEndpointErrorsOutliveTheRing(t *testing.T) {
	ts := httptest.NewServer(NewService(sim.New(), nil, WithRecent(1)).Handler())
	defer ts.Close()
	ctx := context.Background()
	h := NewHTTP(ts.URL)
	defer h.Close()

	if _, err := h.Execute(ctx, smallReq("no-such-bench", 3000)); !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	if _, err := h.Execute(ctx, smallReq("crafty", 3000)); err != nil {
		t.Fatal(err)
	}

	snap, err := h.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Errors != 1 || len(snap.Endpoints) != 1 {
		t.Fatalf("service errors %d, endpoints %+v; want 1 error and one endpoint", snap.Errors, snap.Endpoints)
	}
	if ep := snap.Endpoints[0]; ep.Endpoint != "run" || ep.Requests != 2 || ep.Errors != 1 {
		t.Fatalf("endpoint %q: %d requests, %d errors; want run, 2, 1", ep.Endpoint, ep.Requests, ep.Errors)
	}
}

// TestServiceRecentRequests: /v1/requests/recent serves stage-stamped
// records newest first, with monotone stage timestamps and the second
// run's in-memory provenance visible.
func TestServiceRecentRequests(t *testing.T) {
	ts, _ := newTestService(t)
	ctx := context.Background()
	h := NewHTTP(ts.URL)
	defer h.Close()
	h.SetClientID("recent-test")

	req := smallReq("crafty", 3000)
	for range 2 {
		if _, err := h.Execute(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/requests/recent?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recent: %s", resp.Status)
	}
	var recent []RequestMetrics
	if err := json.NewDecoder(resp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	if len(recent) != 2 {
		t.Fatalf("got %d records, want 2", len(recent))
	}
	if recent[0].Seq <= recent[1].Seq {
		t.Fatalf("not newest first: seq %d then %d", recent[0].Seq, recent[1].Seq)
	}
	if recent[0].Source != "memory" || recent[1].Source != "simulated" {
		t.Fatalf("provenance: newest %q then %q; want memory then simulated",
			recent[0].Source, recent[1].Source)
	}
	for i, rm := range recent {
		if rm.Endpoint != "run" || rm.Client != "recent-test" || rm.Status != http.StatusOK {
			t.Fatalf("record %d: endpoint %q client %q status %d", i, rm.Endpoint, rm.Client, rm.Status)
		}
		if rm.Bench != "crafty" || rm.Key == "" {
			t.Fatalf("record %d: bench %q key %q", i, rm.Bench, rm.Key)
		}
		stages := []int64{rm.AcceptedNS, rm.QueuedNS, rm.DispatchedNS, rm.SettledNS, rm.EncodedNS}
		for j := 1; j < len(stages); j++ {
			if stages[j] < stages[j-1] {
				t.Fatalf("record %d: stage %d stamp %d precedes stage %d stamp %d (stages %v)",
					i, j, stages[j], j-1, stages[j-1], stages)
			}
		}
		if rm.AcceptedNS == 0 || rm.EncodedNS == 0 {
			t.Fatalf("record %d: missing boundary stamps: %+v", i, rm)
		}
	}
}

// TestMetricsRecentRing pins the ring's wrap behavior at the aggregator
// level: capacity 3, five finishes, newest three survive in order.
func TestMetricsRecentRing(t *testing.T) {
	m := newMetrics(3)
	for range 5 {
		m.finish(m.accept("c"), 200, 0)
	}
	got := m.recent(0)
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Seq != want {
			t.Fatalf("recent[%d].Seq = %d, want %d (got %+v)", i, got[i].Seq, want, got)
		}
	}
	if one := m.recent(1); len(one) != 1 || one[0].Seq != 5 {
		t.Fatalf("recent(1) = %+v, want just seq 5", one)
	}
}
