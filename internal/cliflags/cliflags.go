// Package cliflags registers the runner flag set every simulation
// command shares — -backend, -simver, -store, -s3-endpoint and
// -store-cache — and resolves it into the execution backend and result
// store a runner is built from. Centralizing the registration keeps the
// flag names and help strings identical across cmd/sweep, cmd/bench,
// cmd/regshared, cmd/loadgen, cmd/regsim, cmd/paperfigs and
// cmd/storagecost: a flag contract change lands in one place.
//
// The usual shape:
//
//	f := cliflags.RegisterRunnerFlags(flag.CommandLine)
//	flag.Parse()
//	if f.PrintVersion(os.Stdout) {
//	    return // -simver
//	}
//	b, err := f.Build()
//	...
//	defer b.Close()
//	runner := sim.New(b.RunnerOptions()...)
//
// Commands that never choose an execution backend (pure store
// consumers like cmd/storagecost, and cmd/regshared, which always
// executes in-process) register with WithoutBackend; commands that
// need the raw spec for their own construction rules (cmd/bench's
// store/backend interaction checks) read BackendSpec and OpenStore à
// la carte.
package cliflags

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/dispatch"
	"repro/internal/objstore"
	"repro/internal/sim"
)

// defaultBackendHelp documents the -backend values commands accept.
const defaultBackendHelp = "execution backend: local | http://addr"

// config collects the registration options.
type config struct {
	backendHelp string
	noBackend   bool
}

// Option customizes RegisterRunnerFlags.
type Option func(*config)

// WithBackendHelp replaces -backend's help string (the flag's name,
// default and semantics stay shared).
func WithBackendHelp(help string) Option {
	return func(c *config) { c.backendHelp = help }
}

// WithoutBackend skips the -backend flag for commands that never
// choose an execution backend.
func WithoutBackend() Option {
	return func(c *config) { c.noBackend = true }
}

// Flags holds the registered runner flags until the command parses and
// resolves them.
type Flags struct {
	backend   *string
	simver    *bool
	store     *string
	endpoint  *string
	cacheTier *string
}

// RegisterRunnerFlags installs the shared runner flags on fs and
// returns the holder to resolve after fs.Parse.
func RegisterRunnerFlags(fs *flag.FlagSet, opts ...Option) *Flags {
	c := config{backendHelp: defaultBackendHelp}
	for _, o := range opts {
		o(&c)
	}
	f := &Flags{
		store:     fs.String("store", "", "result store spec: fs:DIR | mem: | s3://bucket/prefix (empty: storage off)"),
		endpoint:  fs.String("s3-endpoint", "", "override the s3 endpoint URL for -store s3:// (MinIO / fake server; default AWS_ENDPOINT_URL or the AWS regional endpoint)"),
		cacheTier: fs.String("store-cache", "", "local read-through cache directory for a remote -store (s3 misses fill it; ignored for fs:/mem:)"),
	}
	if !c.noBackend {
		f.backend = fs.String("backend", "local", c.backendHelp)
	}
	f.simver = fs.Bool("simver", false, "print the simulator version tag (the store envelope simver, CI's store cache key) and exit")
	return f
}

// BackendSpec returns the parsed -backend value, or "" when the command
// registered WithoutBackend.
func (f *Flags) BackendSpec() string {
	if f.backend == nil {
		return ""
	}
	return *f.backend
}

// PrintVersion handles -simver: when the flag was set it prints the
// simulator version tag to w and reports true, and the command should
// exit successfully without doing anything else.
func (f *Flags) PrintVersion(w io.Writer) bool {
	if !*f.simver {
		return false
	}
	fmt.Fprintln(w, sim.Version())
	return true
}

// StoreSpec returns the parsed -store value. An empty spec means
// storage off.
func (f *Flags) StoreSpec() string { return *f.store }

// StoreOptions returns the objstore options -s3-endpoint and
// -store-cache imply, for commands that open a backend from StoreSpec
// themselves.
func (f *Flags) StoreOptions() []objstore.Option {
	var opts []objstore.Option
	if *f.endpoint != "" {
		opts = append(opts, objstore.WithEndpoint(*f.endpoint))
	}
	if *f.cacheTier != "" {
		opts = append(opts, objstore.WithLocalCache(*f.cacheTier))
	}
	return opts
}

// OpenStore resolves the store flags to a store. A nil store with a nil
// error means storage off.
func (f *Flags) OpenStore() (*sim.Store, error) {
	return sim.OpenStore(f.StoreSpec(), f.StoreOptions()...)
}

// Built is the resolved runner material: the execution backend (nil
// when registered WithoutBackend) and the result store (nil when
// storage is off).
type Built struct {
	Backend dispatch.Backend
	Store   *sim.Store
}

// Build resolves the parsed flags: it constructs the -backend dispatch
// backend and opens the -store store. On success the caller owns the
// backend and must Close the result.
func (f *Flags) Build() (*Built, error) {
	b := &Built{}
	if f.backend != nil {
		be, err := dispatch.New(*f.backend)
		if err != nil {
			return nil, err
		}
		b.Backend = be
	}
	store, err := f.OpenStore()
	if err != nil {
		if b.Backend != nil {
			b.Backend.Close()
		}
		return nil, err
	}
	b.Store = store
	return b, nil
}

// RunnerOptions assembles the sim options the built backend and store
// imply, with extra appended — ready for sim.New.
func (b *Built) RunnerOptions(extra ...sim.Option) []sim.Option {
	var opts []sim.Option
	if b.Backend != nil {
		opts = dispatch.Options(b.Backend)
	}
	if b.Store != nil {
		opts = append(opts, sim.WithStore(b.Store))
	}
	return append(opts, extra...)
}

// Close releases the built backend. Safe on a nil receiver and with no
// backend, so `defer b.Close()` works in every command shape.
func (b *Built) Close() {
	if b != nil && b.Backend != nil {
		b.Backend.Close()
	}
}
