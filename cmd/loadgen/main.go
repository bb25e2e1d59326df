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
// -bulk B switches the wire from POST /v1/run to the batch endpoint:
// each loop iteration sends B sweep cells as one POST /v1/runs call.
// Accounting stays per item — every cell in a batch counts ok,
// rejected or failed individually (in-band per-item 429s are how the
// admission gate sheds bulk load), so the ok/rejected/failed columns
// compare directly against the per-request curve; only the wire
// round-trip count changes.
//
// Usage:
//
//	loadgen -url http://localhost:8347 -points 1,2,4,8,16 -duration 5s
//	loadgen -url http://localhost:8347 -points 1,2,4 -duration 5s -bulk 8
//	loadgen -url http://localhost:8347 -points 4 -duration 2s -check
//	loadgen -store s3://simstore/grid -s3-endpoint http://127.0.0.1:9000 -points 1,4 -duration 2s
//
// -store switches loadgen from driving a regshared service to driving
// the storage tier itself: each client loops PutIfAbsent + Get
// round-trips over a shared synthetic working set, the saturation
// table reports op throughput and latency, and the summary line prints
// the backend's tier counters (gets/puts/local hits/remote bytes).
//
// -check turns the run into a smoke test: any transport/5xx-class
// failure, a point that completed zero ok requests, or a malformed
// /metrics snapshot exits nonzero (429s are expected backpressure, not
// failures).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/objstore"
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
		bulk     = flag.Int("bulk", 0, "cells per POST /v1/runs batch (0 or 1: per-request POST /v1/run)")
		check    = flag.Bool("check", false, "smoke mode: exit 1 on any failure, a point with zero ok results, or a malformed /metrics snapshot")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine, cliflags.WithoutBackend())
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return
	}
	clients, err := parsePoints(*points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	if spec := rf.StoreSpec(); spec != "" {
		os.Exit(runStoreLoad(spec, rf.StoreOptions(), clients, *duration, *grid, *check))
	}

	reqs := buildSweep(*bench, *warmup, *measure, *grid)

	ctx := sim.SignalContext()
	var rows []row
	for _, c := range clients {
		r := runPoint(ctx, *url, c, *duration, reqs, *bulk)
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

// runStoreLoad is the storage-tier load mode (-store): instead of
// driving a regshared service, the clients hammer the store backend
// itself — PutIfAbsent + Get round-trips over a synthetic
// content-addressed working set — and the summary reports the
// backend's tier counters. The saturation table's columns keep their
// meaning (ok = verified round-trips; the cycles column is zero:
// nothing simulates). Returns the process exit code.
func runStoreLoad(spec string, opts []objstore.Option, clients []int, d time.Duration, grid int, check bool) int {
	b, err := objstore.New(spec, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	defer b.Close()
	if grid < 1 {
		grid = 1
	}
	ctx := sim.SignalContext()
	fmt.Printf("storage-tier load against %s\n", b.String())
	var rows []row
	for _, c := range clients {
		r := runStorePoint(ctx, b, c, d, grid)
		rows = append(rows, r)
		if ctx.Err() != nil {
			break
		}
	}
	printTable(os.Stdout, rows)
	st := b.Stats()
	fmt.Printf("store: %d gets (%d local hits, %d remote, %d remote bytes), %d puts, %d lists\n",
		st.Gets, st.LocalHits, st.RemoteGets, st.RemoteBytes, st.Puts, st.Lists)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "loadgen: interrupted")
		return 130
	}
	if check {
		if err := smokeVerdict(rows); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: store smoke check FAILED: %v\n", err)
			return 1
		}
		fmt.Println("loadgen: store smoke check passed: zero failures")
	}
	return 0
}

// runStorePoint drives one offered-load point against the backend: c
// concurrent clients looping over a per-client working set of grid
// entries. Each iteration is one PutIfAbsent + Get pair whose payload
// is derived from the entry name, so a read must round-trip
// byte-identically no matter which client stored it first.
func runStorePoint(ctx context.Context, b objstore.Backend, c int, d time.Duration, grid int) row {
	results := make([]clientResult, c)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for id := range c {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cr := &results[id]
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				// Shared working set: every client cycles the same grid
				// names, so concurrent PutIfAbsent calls race on purpose.
				seed := fmt.Sprintf("loadgen-store-%d", i%grid)
				sum := sha256.Sum256([]byte(seed))
				name := hex.EncodeToString(sum[:])
				payload := []byte("loadgen store payload for " + seed)
				t0 := time.Now()
				_, err := b.PutIfAbsent(ctx, name, payload)
				var got []byte
				if err == nil {
					got, err = b.Get(ctx, name)
				}
				lat := time.Since(t0)
				switch {
				case ctx.Err() != nil:
					return
				case err != nil:
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
				case !bytes.Equal(got, payload):
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = fmt.Errorf("entry %s round-tripped %d bytes, want %d", name, len(got), len(payload))
					}
				default:
					cr.ok++
					cr.lats = append(cr.lats, lat)
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
		r.failed += cr.failed
		r.cycles += cr.cycles
		lats = append(lats, cr.lats...)
		if r.firstErr == nil {
			r.firstErr = cr.firstErr
		}
	}
	r.attempted = r.ok + r.failed
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.p50 = quantile(lats, 0.50)
	r.p99 = quantile(lats, 0.99)
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: store point %d: %d failures, first: %v\n", c, r.failed, r.firstErr)
	}
	return r
}

// smokeVerdict is -check's verdict over the saturation rows. Any failed
// operation fails it (429 rejections are not failures), and so does a
// point that completed zero ok operations — every call shed, or nothing
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
		return fmt.Errorf("%d failed operations", failed)
	case idle > 0:
		return fmt.Errorf("%d of %d points completed zero ok operations", idle, len(rows))
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
	bulk      int
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
// over the sweep for d, each iteration one POST /v1/run — or, with
// bulk > 1, one POST /v1/runs carrying bulk cells.
func runPoint(ctx context.Context, url string, c int, d time.Duration, reqs []sim.Request, bulk int) row {
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
			for i := id; time.Now().Before(deadline) && ctx.Err() == nil; {
				if bulk > 1 {
					chunk := make([]sim.Request, bulk)
					for j := range bulk {
						chunk[j] = reqs[(i+j)%len(reqs)]
					}
					i += bulk
					if !runBatch(ctx, h, chunk, cr) {
						return
					}
					continue
				}
				req := reqs[i%len(reqs)]
				i++
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

	r := row{clients: c, bulk: bulk, elapsed: time.Since(start)}
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

// runBatch sends one bulk batch and books every item individually, so
// the curve's ok/rejected/failed columns mean the same thing they mean
// per-request. Each item is charged the batch's wall latency — the
// latency a caller of that cell actually observed. Returns false when
// the run is canceled.
func runBatch(ctx context.Context, h *dispatch.HTTP, chunk []sim.Request, cr *clientResult) bool {
	t0 := time.Now()
	items, err := h.ExecuteBatch(ctx, chunk)
	lat := time.Since(t0)
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			return false
		}
		// A whole-batch transport failure failed every cell in it.
		cr.failed += len(chunk)
		if cr.firstErr == nil {
			cr.firstErr = err
		}
		return true
	}
	backoff := time.Duration(0)
	for _, it := range items {
		switch {
		case it.Err == nil:
			cr.ok++
			cr.cycles += it.Res.S.Cycles
			cr.lats = append(cr.lats, lat)
		case errors.Is(it.Err, dispatch.ErrOverloaded):
			cr.rejected++
			backoff = max(backoff, overloadBackoff(it.Err))
		case errors.Is(it.Err, sim.ErrCanceled):
			return false
		default:
			cr.failed++
			if cr.firstErr == nil {
				cr.firstErr = it.Err
			}
		}
	}
	// One backoff per batch, sized by the worst per-item hint: the
	// shed items all came from the same gate snapshot.
	if backoff > 0 {
		sleepCtx(ctx, backoff)
	}
	return true
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
	fmt.Fprintln(w, "| clients | bulk | offered cells/s | ok cells/s | rejected/s | p50 ms | p99 ms | delivered Mcycles/s |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|")
	for _, r := range rows {
		secs := r.elapsed.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		mode := "-"
		if r.bulk > 1 {
			mode = strconv.Itoa(r.bulk)
		}
		fmt.Fprintf(w, "| %d | %s | %.1f | %.1f | %.1f | %.2f | %.2f | %.2f |\n",
			r.clients,
			mode,
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
