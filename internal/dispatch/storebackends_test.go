package dispatch

// Cross-backend storage acceptance: the same grid stored through fs:,
// mem: and s3:// backends must be indistinguishable — byte-identical
// envelopes, equal manifest roots — and a fleet sharing one s3 bucket
// must behave as one store: the second host serves the first host's
// results without simulating, and both hosts see one manifest root.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/objstore"
	"repro/internal/objstore/s3test"
	"repro/internal/objstore/sigv4"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fakeBucket starts the in-process S3 fake and returns a -store style
// opener bound to it: each call builds a fresh client backend over the
// same bucket.
func fakeBucket(t *testing.T, bucket string) func() objstore.Backend {
	t.Helper()
	creds := sigv4.Credentials{AccessKeyID: "AKIDFLEET", SecretAccessKey: "fleet-secret"}
	ts := httptest.NewServer(s3test.New(bucket, creds, "us-east-1"))
	t.Cleanup(ts.Close)
	return func() objstore.Backend {
		t.Helper()
		b, err := objstore.New("s3://"+bucket+"/grid",
			objstore.WithEndpoint(ts.URL),
			objstore.WithCredentials(creds.AccessKeyID, creds.SecretAccessKey),
			objstore.WithRegion("us-east-1"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
}

// storeDump reads every raw envelope out of a store's backend, keyed by
// entry name.
func storeDump(t *testing.T, b objstore.Backend) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	out := map[string][]byte{}
	for i := 0; i < sim.ShardCount; i++ {
		objs, err := b.List(ctx, fmt.Sprintf("%02x", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range objs {
			data, err := b.Get(ctx, obj.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[obj.Name] = data
		}
	}
	return out
}

// TestStoresByteIdenticalAcrossBackends runs the 112-cell acceptance
// grid three times, once with each backend behind the store, and
// checks the three stores end up indistinguishable: same report bytes,
// same entry count, byte-identical envelopes entry-for-entry, equal
// manifest roots. This is the property that makes an s3 bucket, an fs
// host and a mem worker interchangeable homes for one fleet's results.
func TestStoresByteIdenticalAcrossBackends(t *testing.T) {
	spec := backendGrid(t)
	ctx := context.Background()
	openS3 := fakeBucket(t, "identical")

	backends := map[string]objstore.Backend{"s3": openS3()}
	for name, storeSpec := range map[string]string{"fs": "fs:" + t.TempDir(), "mem": "mem:"} {
		b, err := objstore.New(storeSpec)
		if err != nil {
			t.Fatal(err)
		}
		backends[name] = b
	}

	type outcome struct {
		report []byte
		root   string
		dump   map[string][]byte
	}
	results := map[string]outcome{}
	for _, name := range []string{"fs", "mem", "s3"} {
		s := sim.NewStoreWith(backends[name])
		rep, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, sim.New(sim.WithStore(s)), nil)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Manifest(ctx)
		if err != nil {
			t.Fatalf("%s manifest: %v", name, err)
		}
		results[name] = outcome{report: data, root: m.Root, dump: storeDump(t, backends[name])}
	}

	base := results["fs"]
	if len(base.dump) == 0 {
		t.Fatal("fs store is empty after the grid run")
	}
	for _, name := range []string{"mem", "s3"} {
		got := results[name]
		if !bytes.Equal(got.report, base.report) {
			t.Errorf("%s report differs from the fs report", name)
		}
		if got.root != base.root {
			t.Errorf("%s manifest root %s != fs root %s", name, got.root, base.root)
		}
		if len(got.dump) != len(base.dump) {
			t.Errorf("%s stored %d entries, fs stored %d", name, len(got.dump), len(base.dump))
		}
		for entry, data := range base.dump {
			if !bytes.Equal(got.dump[entry], data) {
				t.Errorf("%s entry %s is not byte-identical to the fs envelope", name, entry)
			}
		}
	}
}

// TestSharedBucketServesFleet is the fleet acceptance: two hosts with
// independent runners share one s3 bucket. Host A simulates the grid;
// host B then runs the same grid and must serve every cell from the
// shared store — zero simulations — and both hosts must compute the
// same manifest root over the bucket.
func TestSharedBucketServesFleet(t *testing.T) {
	spec := backendGrid(t)
	ctx := context.Background()
	openS3 := fakeBucket(t, "fleet")

	storeA := sim.NewStoreWith(openS3())
	runnerA := sim.New(sim.WithStore(storeA))
	repA, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, runnerA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := runnerA.Counters().Simulated; n == 0 {
		t.Fatal("host A simulated nothing; the grid cannot have populated the bucket")
	}

	// Host B opens its own client on the shared bucket.
	storeB := sim.NewStoreWith(openS3())
	runnerB := sim.New(sim.WithStore(storeB))
	repB, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, runnerB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := runnerB.Counters().Simulated; n != 0 {
		t.Fatalf("host B simulated %d cells, want 0: every result was already in the shared bucket", n)
	}
	a, _ := json.Marshal(repA)
	b, _ := json.Marshal(repB)
	if !bytes.Equal(a, b) {
		t.Fatal("host B's served report differs from host A's simulated report")
	}
	ts := storeB.TierStats()
	if ts.Gets == 0 {
		t.Fatalf("host B tier stats %+v: expected bucket gets serving the grid", ts)
	}

	// One bucket is one store: both hosts describe it by one root.
	ma, err := storeA.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := storeB.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Root != mb.Root {
		t.Fatalf("hosts sharing one bucket compute different roots: A %s, B %s", ma.Root, mb.Root)
	}
}
