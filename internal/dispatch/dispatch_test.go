package dispatch

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestRemoteParsesBackendSpecs: the -backend flag grammar. local (and
// the empty default) resolve to no client, an http(s) address to one.
func TestRemoteParsesBackendSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		remote  bool
		wantErr bool
	}{
		{spec: ""},
		{spec: "local"},
		{spec: "http://example:8347", remote: true},
		{spec: "https://example", remote: true},
		{spec: "pool:4", wantErr: true},
		{spec: "tcp://example", wantErr: true},
		{spec: "remote", wantErr: true},
		{spec: "batched:local", wantErr: true},
		{spec: "batched:pool:2", wantErr: true},
	}
	for _, c := range cases {
		h, err := Remote(c.spec)
		switch {
		case c.wantErr:
			if err == nil {
				t.Errorf("Remote(%q): expected an error, got %v", c.spec, h)
			}
		case err != nil:
			t.Errorf("Remote(%q): %v", c.spec, err)
		case (h != nil) != c.remote:
			t.Errorf("Remote(%q) = %v, want a client: %v", c.spec, h, c.remote)
		}
		if h != nil {
			h.Close()
		}
	}
}

// TestWireErrorTaxonomy: wire kinds re-wrap the sim sentinels — except
// a remote cancellation, which must NOT look like a local interrupt
// (commands translate sim.ErrCanceled into "interrupted"/exit 130, and
// this caller's context was never canceled).
func TestWireErrorTaxonomy(t *testing.T) {
	if err := wireError(kindUnknownBenchmark, "m"); !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("unknown_benchmark: %v", err)
	}
	if err := wireError(kindBadConfig, "m"); !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("bad_config: %v", err)
	}
	if err := wireError(kindCanceled, "m"); errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("a remote cancellation must not re-wrap ErrCanceled: %v", err)
	}
	if err := wireError("kind-from-the-future", "the message"); err == nil || err.Error() != "the message" {
		t.Fatalf("unknown kind must keep the message: %v", err)
	}
}

// resultsEqual compares two results through their canonical JSON form —
// the same representation the wire and the store use, so "equal" here
// is exactly the bit-identical contract the backends promise.
func resultsEqual(t *testing.T, a, b *sim.Result) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(aj) == string(bj)
}
