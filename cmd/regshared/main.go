// Command regshared serves simulation results over HTTP: the
// result service behind the `-backend http://addr` flag of cmd/sweep
// and cmd/paperfigs, and a plain JSON API for everything else.
//
// Endpoints:
//
//	POST /v1/run              one sim.Request in, one sim.Result out
//	GET  /metrics             service counters, queue/in-flight gauges,
//	                          store hit rate, run latency p50/p99
//	GET  /v1/requests/recent  the last-N requests' stage-stamped metrics
//
// All requests flow through one shared sim.Runner, so concurrent
// clients asking for the same cell share a single simulation, and
// -store persists every completed result: a later request for a stored
// cell is answered from the store without simulating. Simulations run
// in the server process; a configuration that faults the simulator
// fails its own request (422, error kind "sim_fault") and the service
// keeps serving.
//
// Run requests pass a bounded admission gate (-max-inflight,
// -max-queue) with per-client fair dequeue; beyond both bounds the
// service answers 429 with a Retry-After hint instead of queueing
// unboundedly. perfbench's serve-warm workload measures the service
// under load.
//
// Hosts share results through one -store fs:DIR directory on a shared
// POSIX filesystem where rename(2) and link(2) are atomic (not NFS):
// every host's runner reads and writes the same entries. N such hosts
// drain a fleet-scale grid cooperatively: `regshared -store fs:DIR
// -drain fleet-grid` leases contiguous cell shards via claim objects
// in the directory's lease area (see internal/fleet), simulates its
// share, and exits with a drain summary — resumable, exactly-once
// across hosts, with the store's manifest root as the single source of
// truth.
//
// Usage:
//
//	regshared -addr :8347 -store fs:/var/lib/regshared
//	regshared -addr :8347 -store fs:/shared/grid   # one directory for a fleet
//	regshared -addr :8347 -max-inflight 16 -max-queue 256
//	regshared -addr 127.0.0.1:0 -store mem:   # any free port; the startup log line names it
//	regshared -simver          # print the store envelope version and exit
//	regshared -store fs:DIR -manifest       # print the store manifest summary and exit
//	regshared -store fs:DIR -drain fleet-grid -host a   # drain one grid as a fleet host
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// get 10 seconds to finish (their runner contexts are canceled by the
// forced close after that), and only completed simulations ever reach
// the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/dispatch"
	"repro/internal/sim"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		workers     = flag.Int("workers", 0, "cap the runner's concurrent simulations (0: GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 0, "admission: max concurrently executing requests (0: 4×GOMAXPROCS, min 16)")
		maxQueue    = flag.Int("max-queue", 1024, "admission: max queued requests before 429 + Retry-After (negative: no queue, reject beyond -max-inflight)")
		recent      = flag.Int("recent", 256, "size of the /v1/requests/recent ring buffer")
		manifest    = flag.Bool("manifest", false, "print the -store store's manifest summary and exit")

		drainSpec  = flag.String("drain", "", "drain a scenario's grid as one fleet host and exit: a builtin name or .scenario path (needs a shared -store fs:DIR)")
		host       = flag.String("host", "", "-drain: this host's name in lease claims (default hostname.pid)")
		shardCells = flag.Int("shard-cells", 64, "-drain: cells per lease shard (every host draining a grid must agree)")
		cellRange  = flag.String("cells", "", "-drain: restrict to cell range LO:HI (shard-aligned; default the whole grid)")
		stalePolls = flag.Int("stale-polls", 30, "-drain: consecutive no-progress polls of a peer's claim before seizing it")
		poll       = flag.Duration("poll", 2*time.Second, "-drain: pause between poll passes when every remaining shard is held by a live peer")
		warmup     = flag.Uint64("warmup", 0, "-drain: override the scenario's warmup µops (explicit 0 = no warmup)")
		measure    = flag.Uint64("measure", 0, "-drain: override the scenario's measured µops")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine, cliflags.WithoutBackend())
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return
	}
	if *manifest {
		store, err := rf.OpenStore()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if store == nil {
			fmt.Fprintln(os.Stderr, "regshared: -manifest needs a -store")
			os.Exit(1)
		}
		if err := printManifest(store); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	b, err := rf.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer b.Close()

	var workerOpts []sim.Option
	if *workers > 0 {
		workerOpts = append(workerOpts, sim.WithWorkers(*workers))
	}
	runner := sim.New(b.RunnerOptions(workerOpts...)...)

	if *drainSpec != "" {
		if err := runDrain(runner, b.Store, rf, drainConfig{
			scenario: *drainSpec, host: *host, shardCells: *shardCells,
			cells: *cellRange, stalePolls: *stalePolls, poll: *poll,
			warmup: warmup, measure: measure,
		}); err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	service := dispatch.NewService(runner, b.Store,
		dispatch.WithAdmission(*maxInflight, *maxQueue),
		dispatch.WithRecent(*recent))
	srv := &http.Server{
		Handler: service.Handler(),
		// Slowloris guard: a client gets 10s to deliver its headers, so
		// one slow-header connection cannot hold an accept slot forever.
		ReadHeaderTimeout: 10 * time.Second,
		// Request bodies are decoded up front and bounded at 16MB by the
		// handlers, so a healthy client finishes writing one well within
		// this; a stalled body read no longer pins the connection.
		ReadTimeout: 2 * time.Minute,
		// Reap idle keep-alive connections instead of accumulating them.
		IdleTimeout: 2 * time.Minute,
		// WriteTimeout stays 0 DELIBERATELY: a /v1/run response waits on
		// its simulation, which can legitimately take minutes, so any
		// fixed write deadline would cut healthy long responses. Stuck
		// writers are bounded instead by the per-request context
		// (canceled when the client goes away) and by graceful
		// shutdown's force-close.
	}

	// ^C / SIGTERM: stop accepting, give in-flight requests 10s, then
	// force-close (which cancels their request contexts mid-cycle-loop;
	// the store only ever holds completed results, so this is safe).
	ctx := sim.SignalContext()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Print("regshared: shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			srv.Close()
		}
	}()

	// Listen before logging, so the startup line names the bound
	// address: with -addr 127.0.0.1:0 it is how a caller learns the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("regshared: serving on %s (store %s)", ln.Addr(), storeDesc(b.Store))
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}

// storeDesc names the store configuration for the startup log line.
func storeDesc(store *sim.Store) string {
	if store == nil {
		return "off"
	}
	return store.Spec()
}

// printManifest prints the store's manifest summary: hosts sharing one
// directory print the same root.
func printManifest(store *sim.Store) error {
	m, err := store.Manifest(sim.SignalContext())
	if err != nil {
		return err
	}
	fmt.Printf("schema:      %s\n", m.Schema)
	fmt.Printf("sim_version: %s\n", m.SimVersion)
	fmt.Printf("root:        %s\n", m.Root)
	fmt.Printf("shards:      %d\n", len(m.Shards))
	fmt.Printf("entries:     %d\n", m.Entries)
	return nil
}
