package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestNewParsesBackendSpecs: the -backend flag grammar.
func TestNewParsesBackendSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		want    string // type name, "" = error
		wantErr bool
	}{
		{spec: "", want: "local"},
		{spec: "local", want: "local"},
		{spec: "http://example:8347", want: "http"},
		{spec: "https://example", want: "http"},
		{spec: "pool:4", wantErr: true},
		{spec: "tcp://example", wantErr: true},
		{spec: "remote", wantErr: true},
		{spec: "batched:local", wantErr: true},
		{spec: "batched:pool:2", wantErr: true},
	}
	for _, c := range cases {
		b, err := New(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("New(%q): expected an error, got %T", c.spec, b)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%q): %v", c.spec, err)
			continue
		}
		var got string
		switch b.(type) {
		case Local:
			got = "local"
		case *HTTP:
			got = "http"
		}
		if got != c.want {
			t.Errorf("New(%q) = %T, want %s", c.spec, b, c.want)
		}
		b.Close()
	}
}

// TestLocalBackendMatchesSimulate: the extracted Local backend is the
// in-process path, bit for bit.
func TestLocalBackendMatchesSimulate(t *testing.T) {
	req := smallReq("crafty", 3000)
	want, err := sim.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Local{}.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(t, got, want) {
		t.Fatal("Local backend result differs from sim.Simulate")
	}
}

// TestLocalBackendTypedErrors: validation errors pass through typed.
func TestLocalBackendTypedErrors(t *testing.T) {
	_, err := Local{}.Execute(context.Background(), smallReq("no-such-bench", 3000))
	if !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	req := smallReq("crafty", 3000)
	req.Measure = 0
	_, err = Local{}.Execute(context.Background(), req)
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
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
