// Package cliflags registers the runner flag set the simulation
// commands share — -backend, -simver and -store — and
// resolves it into the regshared client and result store a runner is
// built from. Centralizing the registration keeps the flag names and
// help strings identical across cmd/sweep, cmd/paperfigs, cmd/regsim
// and cmd/regshared: a flag contract change lands in one place.
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
// Commands that never choose where to execute (cmd/regsim, which runs
// one request in-process, and cmd/regshared, which always executes
// in-process) register with WithoutBackend; commands that open a store
// or an objstore backend of their own from the -store spec read
// StoreSpec and OpenStore à la carte.
package cliflags

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/dispatch"
	"repro/internal/sim"
)

// config collects the registration options.
type config struct {
	noBackend bool
}

// Option customizes RegisterRunnerFlags.
type Option func(*config)

// WithoutBackend skips the -backend flag for commands that never
// choose where to execute.
func WithoutBackend() Option {
	return func(c *config) { c.noBackend = true }
}

// Flags holds the registered runner flags until the command parses and
// resolves them.
type Flags struct {
	backend *string
	simver  *bool
	store   *string
}

// RegisterRunnerFlags installs the shared runner flags on fs and
// returns the holder to resolve after fs.Parse.
func RegisterRunnerFlags(fs *flag.FlagSet, opts ...Option) *Flags {
	var c config
	for _, o := range opts {
		o(&c)
	}
	f := &Flags{
		store: fs.String("store", "", "result store spec: fs:DIR | mem: (empty: storage off)"),
	}
	if !c.noBackend {
		f.backend = fs.String("backend", "local", "execution backend: local | http://addr")
	}
	f.simver = fs.Bool("simver", false, "print the simulator version tag (the store envelope simver, CI's store cache key) and exit")
	return f
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

// OpenStore resolves the store flags to a store. A nil store with a nil
// error means storage off.
func (f *Flags) OpenStore() (*sim.Store, error) {
	return sim.OpenStore(f.StoreSpec())
}

// Built is the resolved runner material: the regshared client
// -backend http://addr names (nil for -backend local, the in-process
// default, and when registered WithoutBackend) and the result store
// (nil when storage is off).
type Built struct {
	Remote *dispatch.HTTP
	Store  *sim.Store
}

// Build resolves the parsed flags: it parses -backend and opens the
// -store store. On success the caller must Close the result.
func (f *Flags) Build() (*Built, error) {
	b := &Built{}
	if f.backend != nil {
		h, err := dispatch.Remote(*f.backend)
		if err != nil {
			return nil, err
		}
		b.Remote = h
	}
	store, err := f.OpenStore()
	if err != nil {
		b.Close()
		return nil, err
	}
	b.Store = store
	return b, nil
}

// RunnerOptions assembles the sim options the built client and store
// imply, with extra appended — ready for sim.New. Without a client the
// runner keeps its own in-process executor, sim.Simulate.
func (b *Built) RunnerOptions(extra ...sim.Option) []sim.Option {
	var opts []sim.Option
	if b.Remote != nil {
		opts = b.Remote.Options()
	}
	if b.Store != nil {
		opts = append(opts, sim.WithStore(b.Store))
	}
	return append(opts, extra...)
}

// Close releases the built client's idle connections. Safe on a nil
// receiver and with no client, so `defer b.Close()` works in every
// command shape.
func (b *Built) Close() {
	if b != nil && b.Remote != nil {
		b.Remote.Close()
	}
}
