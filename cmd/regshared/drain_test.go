package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/objstore"
	"repro/internal/objstore/s3test"
	"repro/internal/objstore/sigv4"
)

// TestLeaseAreaBypassesStoreCache: with -store-cache set, the lease
// area still reads claims from the bucket itself. A claim is mutable: a
// peer that overwrites it (a generation bump, a done mark) must be seen
// on this host's next read, or a live peer looks stale and is seized.
func TestLeaseAreaBypassesStoreCache(t *testing.T) {
	creds := sigv4.Credentials{AccessKeyID: "AKIDLEASE", SecretAccessKey: "lease-secret"}
	t.Setenv("AWS_ACCESS_KEY_ID", creds.AccessKeyID)
	t.Setenv("AWS_SECRET_ACCESS_KEY", creds.SecretAccessKey)
	t.Setenv("AWS_REGION", "us-east-1")
	ts := httptest.NewServer(s3test.New("leasebucket", creds, "us-east-1"))
	defer ts.Close()

	fs := flag.NewFlagSet("regshared", flag.ContinueOnError)
	rf := cliflags.RegisterRunnerFlags(fs, cliflags.WithoutBackend())
	if err := fs.Parse([]string{"-store", "s3://leasebucket/grid", "-s3-endpoint", ts.URL,
		"-store-cache", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	spec, leases, err := openLeases(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer leases.Close()
	peer, err := objstore.New(spec, objstore.WithEndpoint(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ctx := context.Background()
	name := strings.Repeat("c1", 32) // objects are named by 64 hex digits
	if err := leases.Put(ctx, name, []byte(`{"done":0}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := leases.Get(ctx, name); err != nil {
		t.Fatal(err)
	}
	if err := peer.Put(ctx, name, []byte(`{"done":64}`)); err != nil {
		t.Fatal(err)
	}
	got, err := leases.Get(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"done":64}` {
		t.Fatalf("lease area read %s after a peer's overwrite, want the peer's bytes", got)
	}
}
