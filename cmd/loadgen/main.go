// Command loadgen replays concurrent synthetic sweep clients against a
// regshared service and reports the saturation curve: offered load vs
// p50/p99 latency vs delivered simulated cycles per second. It is the
// load-test harness behind the table in docs/BENCH.md.
//
// Each offered-load point spawns N clients. Every client identifies
// itself with an X-Client header (admission fairness is per client),
// then replays a small synthetic sweep — -grid distinct machine
// configurations of -bench — in a loop against POST /v1/run until
// -duration elapses. 429 rejections honor the service's Retry-After
// hint. After the last point, the service's GET /metrics snapshot is
// fetched and summarized.
//
// Usage:
//
//	loadgen -url http://localhost:8347 -points 1,2,4,8,16 -duration 5s
//	loadgen -url http://localhost:8347 -points 4 -duration 2s -check
//
// -check turns the run into a smoke test: any transport/5xx-class
// failure, a point that completed zero ok requests, or a malformed
// /metrics snapshot exits nonzero (429s are expected backpressure, not
// failures).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/sim"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8347", "regshared service URL")
		points   = flag.String("points", "1,2,4,8", "comma-separated offered-load points (concurrent clients)")
		duration = flag.Duration("duration", 5*time.Second, "how long to drive each point")
		bench    = flag.String("bench", "crafty", "benchmark each synthetic sweep runs")
		warmup   = flag.Uint64("warmup", 200, "warmup µops per request")
		measure  = flag.Uint64("measure", 20000, "measured µops per request")
		grid     = flag.Int("grid", 8, "distinct sweep cells (ROB sizes) per client loop")
		check    = flag.Bool("check", false, "smoke mode: exit 1 on any failure, a point with zero ok results, or a malformed /metrics snapshot")
	)
	flag.Parse()

	clients, err := parsePoints(*points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	reqs := buildSweep(*bench, *warmup, *measure, *grid)

	ctx := sim.SignalContext()
	var rows []row
	for _, c := range clients {
		r := runPoint(ctx, *url, c, *duration, reqs)
		rows = append(rows, r)
		if ctx.Err() != nil {
			break
		}
	}
	printTable(os.Stdout, rows)

	snapErr := summarizeMetrics(ctx, *url)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "loadgen: interrupted")
		os.Exit(130)
	}

	if *check {
		switch err := smokeVerdict(rows); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "loadgen: smoke check FAILED: %v\n", err)
			os.Exit(1)
		case snapErr != nil:
			fmt.Fprintf(os.Stderr, "loadgen: smoke check FAILED: /metrics snapshot: %v\n", snapErr)
			os.Exit(1)
		}
		fmt.Println("loadgen: smoke check passed: zero failures, well-formed /metrics snapshot")
	} else if snapErr != nil {
		fmt.Fprintln(os.Stderr, "loadgen: /metrics:", snapErr)
	}
}

// smokeVerdict is -check's verdict over the saturation rows. Any failed
// request fails it (429 rejections are not failures), and so does a
// point that completed zero ok requests — every call shed, or nothing
// attempted at all — because such a point checked nothing.
func smokeVerdict(rows []row) error {
	failed, idle := 0, 0
	for _, r := range rows {
		failed += r.failed
		if r.ok == 0 {
			idle++
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d failed requests", failed)
	case idle > 0:
		return fmt.Errorf("%d of %d points completed zero ok requests", idle, len(rows))
	}
	return nil
}

// parsePoints parses the -points list.
func parsePoints(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -points entry %q: want positive integers", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// buildSweep builds the synthetic sweep every client replays: n
// distinct cells varying the ROB size around the paper's core, each a
// different dedup/store key so the service sees a realistic mix of
// simulations and (once warm) shared-store hits.
func buildSweep(bench string, warmup, measure uint64, n int) []sim.Request {
	if n < 1 {
		n = 1
	}
	reqs := make([]sim.Request, n)
	for i := range n {
		cfg := core.DefaultConfig()
		cfg.ME.Enabled = true
		cfg.ROBSize = 96 + 16*i
		reqs[i] = sim.Request{Bench: bench, Config: cfg, Warmup: warmup, Measure: measure}
	}
	return reqs
}

// row is one offered-load point's aggregate.
type row struct {
	clients   int
	elapsed   time.Duration
	attempted int
	ok        int
	rejected  int
	failed    int
	cycles    uint64
	p50, p99  time.Duration
	firstErr  error
}

// clientResult is one client's per-item tally for a point.
type clientResult struct {
	ok, rejected, failed int
	cycles               uint64
	lats                 []time.Duration
	firstErr             error
}

// runPoint drives one offered-load point: c concurrent clients looping
// over the sweep for d, each iteration one POST /v1/run.
func runPoint(ctx context.Context, url string, c int, d time.Duration, reqs []sim.Request) row {
	results := make([]clientResult, c)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for id := range c {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := dispatch.NewHTTP(url)
			h.SetClientID(fmt.Sprintf("loadgen-%d", id))
			defer h.Close()
			cr := &results[id]
			for i := id; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				req := reqs[i%len(reqs)]
				t0 := time.Now()
				res, err := h.Execute(ctx, req)
				lat := time.Since(t0)
				switch {
				case err == nil:
					cr.ok++
					cr.cycles += res.S.Cycles
					cr.lats = append(cr.lats, lat)
				case errors.Is(err, dispatch.ErrOverloaded):
					cr.rejected++
					sleepCtx(ctx, overloadBackoff(err))
				case errors.Is(err, sim.ErrCanceled):
					return
				default:
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
				}
			}
		}(id)
	}
	wg.Wait()

	r := row{clients: c, elapsed: time.Since(start)}
	var lats []time.Duration
	for i := range results {
		cr := &results[i]
		r.ok += cr.ok
		r.rejected += cr.rejected
		r.failed += cr.failed
		r.cycles += cr.cycles
		lats = append(lats, cr.lats...)
		if r.firstErr == nil {
			r.firstErr = cr.firstErr
		}
	}
	r.attempted = r.ok + r.rejected + r.failed
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.p50 = quantile(lats, 0.50)
	r.p99 = quantile(lats, 0.99)
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: point %d: %d failures, first: %v\n", c, r.failed, r.firstErr)
	}
	return r
}

// overloadBackoff sizes the 429 backoff from the error's Retry-After
// hint, capped at a second so short smoke runs still make progress.
func overloadBackoff(err error) time.Duration {
	backoff := 100 * time.Millisecond
	if ra, ok := dispatch.RetryAfter(err); ok {
		backoff = min(ra, time.Second)
	}
	return backoff
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// quantile picks q from sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// printTable renders the saturation table (markdown, which reads fine
// raw and pastes straight into docs/BENCH.md).
func printTable(w *os.File, rows []row) {
	fmt.Fprintln(w, "| clients | offered cells/s | ok cells/s | rejected/s | p50 ms | p99 ms | delivered Mcycles/s |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|")
	for _, r := range rows {
		secs := r.elapsed.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.2f | %.2f | %.2f |\n",
			r.clients,
			float64(r.attempted)/secs,
			float64(r.ok)/secs,
			float64(r.rejected)/secs,
			float64(r.p50)/float64(time.Millisecond),
			float64(r.p99)/float64(time.Millisecond),
			float64(r.cycles)/secs/1e6)
	}
}

// summarizeMetrics fetches and sanity-checks the service's /metrics
// snapshot, printing a one-line summary. The returned error is the
// smoke-mode verdict on the snapshot's shape.
func summarizeMetrics(ctx context.Context, url string) error {
	h := dispatch.NewHTTP(url)
	defer h.Close()
	snap, err := h.Metrics(ctx)
	if err != nil {
		return err
	}
	switch {
	case snap.Accepted == 0:
		return errors.New("snapshot reports zero accepted requests after a load run")
	case snap.NowNS < snap.StartedNS:
		return fmt.Errorf("snapshot clock went backwards: started %d, now %d", snap.StartedNS, snap.NowNS)
	case snap.Completed+snap.Errors+snap.Rejected > snap.Accepted:
		return fmt.Errorf("snapshot counters inconsistent: completed %d + errors %d + rejected %d > accepted %d",
			snap.Completed, snap.Errors, snap.Rejected, snap.Accepted)
	case snap.HitRate < 0 || snap.HitRate > 1:
		return fmt.Errorf("snapshot hit rate %v outside [0,1]", snap.HitRate)
	case len(snap.Endpoints) == 0:
		return errors.New("snapshot has no per-endpoint aggregates after a load run")
	}
	fmt.Printf("service: accepted %d (ok %d, rejected %d, errors %d), in-flight %d, queue %d, hit rate %.2f, %.2f Mcycles/s delivered lifetime\n",
		snap.Accepted, snap.Completed, snap.Rejected, snap.Errors,
		snap.InFlight, snap.QueueDepth, snap.HitRate, snap.CyclesPerSec/1e6)
	return nil
}
