package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// backendGrid builds a 112-cell scenario (14 ISRB sizes × 8 counter
// widths over one benchmark, very short runs) — the 100+-cell
// acceptance shape for the cross-backend test.
func backendGrid(t *testing.T) *scenario.Spec {
	t.Helper()
	var entries, bits []string
	for e := 1; e <= 14; e++ {
		entries = append(entries, fmt.Sprintf(`{"label": "%d", "patch": {"entries": %d}}`, e, e))
	}
	for b := 1; b <= 8; b++ {
		bits = append(bits, fmt.Sprintf(`{"label": "%db", "patch": {"ctrbits": %d}}`, b, b))
	}
	spec := fmt.Sprintf(`{
	  "name": "backend-grid", "title": "Backend grid",
	  "benchmarks": ["crafty"],
	  "warmup": 200, "measure": 1500,
	  "opt": {"me": true, "smb": true, "tracker": "isrb"},
	  "axes": [
	    {"name": "entries", "values": [%s]},
	    {"name": "bits", "values": [%s]}
	  ],
	  "report": {"kind": "grid", "rowheader": "entries"}
	}`, strings.Join(entries, ","), strings.Join(bits, ","))
	s, err := scenario.ParseBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBackendsBitIdentical is the cross-backend conformance suite: one
// 112-cell scenario run through the local, pool:4 and http backends
// produces byte-identical RunReports. Everything above the Executor —
// validation, dedup, aggregation — is shared, and the simulator is
// deterministic, so any byte of divergence means a backend corrupted,
// re-ordered or lossily re-encoded a result.
func TestBackendsBitIdentical(t *testing.T) {
	spec := backendGrid(t)
	matrix := spec.MustExpand(scenario.Overrides{})
	if len(matrix.Cells) < 100 {
		t.Fatalf("grid has %d cells, want >= 100", len(matrix.Cells))
	}

	run := func(r *sim.Runner) []byte {
		t.Helper()
		rep, err := spec.MustExpand(scenario.Overrides{}).Run(context.Background(), r, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	local := run(sim.New(sim.WithExecutor(Local{}.Execute)))

	pool := NewPool(4)
	defer pool.Close()
	viaPool := run(sim.New(Options(pool)...))
	if st := pool.Stats(); st.Crashes != 0 {
		t.Fatalf("pool run crashed workers: %+v", st)
	}

	server := httptest.NewServer(NewService(sim.New(), nil).Handler())
	defer server.Close()
	h := NewHTTP(server.URL)
	defer h.Close()
	viaHTTP := run(sim.New(Options(h)...))

	for _, c := range []struct {
		name string
		got  []byte
	}{
		{"pool:4", viaPool},
		{"http", viaHTTP},
	} {
		if string(c.got) != string(local) {
			t.Errorf("%s report differs from the local report", c.name)
		}
	}
}
