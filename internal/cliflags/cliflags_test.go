package cliflags

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// registered lists the flag names RegisterRunnerFlags installed on fs.
func registered(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// TestSharedRegistration: one call registers exactly the shared
// contract — backend, simver and the two store flags — and nothing
// else.
func TestSharedRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	RegisterRunnerFlags(fs)
	want := []string{"backend", "s3-endpoint", "simver", "store"}
	if got := registered(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("registered flags %v, want %v", got, want)
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	RegisterRunnerFlags(fs2, WithoutBackend())
	want = []string{"s3-endpoint", "simver", "store"}
	if got := registered(fs2); !reflect.DeepEqual(got, want) {
		t.Errorf("WithoutBackend registered flags %v, want %v", got, want)
	}
}

// TestPrintVersion: -simver prints the envelope version and signals the
// command to stop.
func TestPrintVersion(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterRunnerFlags(fs)
	if err := fs.Parse([]string{"-simver"}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if !f.PrintVersion(&out) {
		t.Fatal("PrintVersion did not fire for -simver")
	}
	if got := strings.TrimSpace(out.String()); got != sim.Version() {
		t.Fatalf("printed %q, want %q", got, sim.Version())
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := RegisterRunnerFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f2.PrintVersion(&out) {
		t.Fatal("PrintVersion fired without -simver")
	}
}

// parse registers the runner flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStoreSpecPassesThrough: StoreSpec returns every -store value
// unchanged, the empty storage-off spec included.
func TestStoreSpecPassesThrough(t *testing.T) {
	for _, spec := range []string{"", "fs:/tmp/x", "mem:", "s3://bucket/prefix"} {
		if got := parse(t, "-store", spec).StoreSpec(); got != spec {
			t.Errorf("-store %q: StoreSpec() = %q", spec, got)
		}
	}
}

// TestStoreOpenResolvesBackends: fs:, mem: and s3:// open (-s3-endpoint
// reaches the backend through StoreOptions), no -store means storage
// off, and a bad spec surfaces the objstore error.
func TestStoreOpenResolvesBackends(t *testing.T) {
	t.Setenv("AWS_ACCESS_KEY_ID", "test")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "testsecret")
	for _, tc := range []struct {
		args      []string
		wantStore string // substring of the opened store's Spec
	}{
		{[]string{"-store", "fs:" + t.TempDir()}, "fs:"},
		{[]string{"-store", "mem:"}, "mem:"},
		{[]string{"-store", "s3://bucket/prefix", "-s3-endpoint", "http://127.0.0.1:9"}, "s3://bucket/prefix"},
	} {
		s, err := parse(t, tc.args...).OpenStore()
		if err != nil {
			t.Fatalf("OpenStore(%v): %v", tc.args, err)
		}
		if s == nil || !strings.Contains(s.Spec(), tc.wantStore) {
			t.Fatalf("OpenStore(%v) = %v, want spec containing %q", tc.args, s, tc.wantStore)
		}
		s.Close()
	}

	if s, err := parse(t).OpenStore(); s != nil || err != nil {
		t.Fatalf("OpenStore() with no flags = (%v, %v), want (nil, nil)", s, err)
	}
	if _, err := parse(t, "-store", "gopher://nope").OpenStore(); err == nil {
		t.Fatal("bad -store spec did not error")
	}
	if _, err := parse(t, "-store", "s3://bucket/prefix", "-s3-endpoint", "no-scheme").OpenStore(); err == nil {
		t.Fatal("a bad -s3-endpoint did not reach the s3 backend")
	}
}

// TestBuild: the local backend and the -store store resolve into runner
// options; a bad store spec fails without leaking the backend.
func TestBuild(t *testing.T) {
	b, err := parse(t, "-store", "fs:"+t.TempDir()).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Backend == nil || b.Store == nil {
		t.Fatalf("build incomplete: %+v", b)
	}
	if len(b.RunnerOptions()) == 0 || sim.New(b.RunnerOptions()...) == nil {
		t.Fatal("options do not build a runner")
	}

	// Storage off: a backend and no store.
	off, err := parse(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.Backend == nil || off.Store != nil {
		t.Fatalf("storage-off build: %+v", off)
	}

	if bad, err := parse(t, "-store", "gopher://nope").Build(); err == nil {
		bad.Close()
		t.Fatal("bad store spec accepted")
	}

	// Storage off, no backend: an empty but usable Built.
	fs3 := flag.NewFlagSet("z", flag.ContinueOnError)
	f3 := RegisterRunnerFlags(fs3, WithoutBackend())
	if err := fs3.Parse(nil); err != nil {
		t.Fatal(err)
	}
	b3, err := f3.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	if b3.Backend != nil || b3.Store != nil || len(b3.RunnerOptions()) != 0 {
		t.Fatalf("empty build not empty: %+v", b3)
	}
	var nilBuilt *Built
	nilBuilt.Close() // must not panic
}
