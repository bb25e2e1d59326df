package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// layers holds the traced phase's instruments.
type layers struct {
	tr    *tracer
	store opStats
	lease opStats
	exec  execStats
	ids   map[string]string // store entry name → sim.Key; read-only once the timed region starts

	gridIDNS   int64
	drainNS    int64
	manifestNS int64
	takeovers  int
}

// register maps the store entries of m's requests to their keys, the
// request ids of store spans.
func (l *layers) register(m *scenario.Matrix) {
	for _, req := range m.Requests {
		key := sim.Key(req)
		l.ids[entryName(key)] = key
	}
}

// layerSnapshot freezes the instruments at the end of a timed region,
// plus the sim.Key and Store.Load probe taken after it.
type layerSnapshot struct {
	store, lease                  opCounts
	execNS, buildNS, newNS        int64
	run                           rate
	committed, renamed            uint64
	byFamily, byTracker           map[string]rate
	gridIDNS, drainNS, manifestNS int64
	takeovers                     int
	self                          map[string]time.Duration
	keyUS, loadUS, loadGetUS      float64
}

// opCounts is a plain copy of opStats.
type opCounts struct {
	gets, getMisses, getBytes, getNS int64
	puts, putBytes, putNS            int64
	putIfAbsents, putIfAbsentNS      int64
	errors                           int64
}

func (o *opStats) counts() opCounts {
	return opCounts{
		gets: o.gets.Load(), getMisses: o.getMisses.Load(), getBytes: o.getBytes.Load(), getNS: o.getNS.Load(),
		puts: o.puts.Load(), putBytes: o.putBytes.Load(), putNS: o.putNS.Load(),
		putIfAbsents: o.putIfAbsents.Load(), putIfAbsentNS: o.putIfAbsentNS.Load(),
		errors: o.errors.Load(),
	}
}

func (c opCounts) ops() int64 { return c.gets + c.puts + c.putIfAbsents }

func (c opCounts) busy() time.Duration { return time.Duration(c.getNS + c.putNS + c.putIfAbsentNS) }

func (l *layers) snapshot() *layerSnapshot {
	l.exec.mu.Lock()
	defer l.exec.mu.Unlock()
	l.tr.mu.Lock()
	spans := append([]span(nil), l.tr.spans...)
	l.tr.mu.Unlock()
	return &layerSnapshot{
		store: l.store.counts(), lease: l.lease.counts(),
		execNS: l.exec.execNS, buildNS: l.exec.buildNS, newNS: l.exec.newNS,
		run: l.exec.run, committed: l.exec.committed, renamed: l.exec.renamed,
		byFamily: l.exec.byFamily, byTracker: l.exec.byTracker,
		gridIDNS: l.gridIDNS, drainNS: l.drainNS, manifestNS: l.manifestNS, takeovers: l.takeovers,
		self: selfTimes(spans),
	}
}

// probeRounds repeats the sim.Key and Store.Load probe over the grid so
// the means rest on about a thousand calls.
const probeRounds = 6

// probe times sim.Key and Store.Load over every request of the grid,
// one call at a time, and splits the load into the backend Get (from the
// timing backend) and the envelope decode around it.
func (b *bench) probe(ctx context.Context, m *scenario.Matrix, store *sim.Store, snap *layerSnapshot) {
	closeSpan := b.lay.tr.open("probe")
	defer closeSpan()
	var keyNS, loadNS, getNS, n int64
	for range probeRounds {
		for _, req := range m.Requests {
			t0 := time.Now()
			key := sim.Key(req)
			t1 := time.Now()
			g0 := b.lay.store.getNS.Load()
			store.Load(ctx, key)
			t2 := time.Now()
			getNS += b.lay.store.getNS.Load() - g0
			keyNS += int64(t1.Sub(t0))
			loadNS += int64(t2.Sub(t1))
			n++
		}
	}
	snap.keyUS = float64(keyNS) / float64(n) / 1e3
	snap.loadUS = float64(loadNS) / float64(n) / 1e3
	snap.loadGetUS = float64(getNS) / float64(n) / 1e3
}

// entryName is the store's entry name for a key: the hex SHA-256 of it.
func entryName(key string) string {
	d := sha256.Sum256([]byte(key))
	return hex.EncodeToString(d[:])
}

// digest fingerprints delivered results: the SHA-256 over every result's
// key and JSON-encoded simulated statistics, in sim.Key order.
func digest(results map[string]*sim.Result) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		data, err := json.Marshal(results[k])
		if err != nil {
			panic(fmt.Sprintf("perfbench: result not encodable: %v", err)) // a sim.Result is plain data
		}
		fmt.Fprintf(h, "%s\x00%s\x00", k, data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// nearestRank returns the q-quantile of xs by the nearest-rank method,
// the zero value when xs is empty.
func nearestRank[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// quantile returns the q-quantile of ds (nearest rank), in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	return float64(nearestRank(ds, q)) / float64(time.Millisecond)
}

// rateQuantile picks the rate a run reports from its parts' rates. On a
// shared host, neighbours' load only ever slows a part down, and it comes
// in bursts: within one serve-warm run on the reference host the 10th
// and 95th percentile segment rates differed threefold, and across runs
// minutes apart the median rate moved twice as far as the 90th
// percentile. The 90th percentile is the least contended tenth of the
// timed region: the code's own speed with the least of the neighbours'.
// A change that slows every part moves it in full; one that slows only
// a few parts shows in the latency tail printed beside it instead.
const rateQuantile = 0.9

// rate is the outcome's reported results per second.
func (o *outcome) rate() float64 { return nearestRank(o.rates, rateQuantile) }

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// check compares the outcome's digests with their goldens and prints
// them with the operation counts; it reports whether the run's outputs
// are correct.
func (b *bench) check(o *outcome) bool {
	ok := o.failed == 0 && len(o.digests) > 0
	for _, c := range o.digests {
		status := "no golden for this draw"
		if c.golden != "" {
			if c.digest == c.golden {
				status = "matches the golden"
			} else {
				status = "DIFFERS from the golden " + c.golden
				ok = false
			}
		}
		fmt.Fprintf(b.log, "results digest, %s (seed %d): %s (%s)\n", c.what, c.seed, c.digest, status)
	}
	fmt.Fprintf(b.log, "operations: %d attempted, %d failed\n", o.attempted, o.failed)
	return ok
}

// untraced runs the workload with stock constructors and reports the
// end-to-end metrics.
func (b *bench) untraced(w workload) (resultLine, error) {
	outs, err := w.run(b)
	if err != nil {
		return resultLine{}, err
	}
	o := outs[0]
	r := func(q float64) float64 { return nearestRank(o.rates, q) }
	fmt.Fprintf(b.log, "timed region: %.3f s, %d results over %d parts; results/s per part: p10 %.1f, p50 %.1f, p90 %.1f, max %.1f\n",
		o.elapsed.Seconds(), o.results, len(o.rates), r(0.1), r(0.5), r(0.9), r(1))
	fmt.Fprintf(b.log, "latency of one delivered unit: p50 %.4f ms, p99 %.4f ms over %d samples\n",
		quantile(o.lat, 0.50), quantile(o.lat, 0.99), len(o.lat))
	return resultLine{
		Correct:   b.check(o),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":       measured(o.setup.Seconds(), "s"),
			"results_per_s": measured(o.rate(), "1/s"),
			"max_rss_mb":    measured(maxRSSMB(), "MB"),
		},
	}, nil
}

// traced runs the workload untraced and then traced in one process,
// writes the spans and reports the per-layer metrics.
func (b *bench) traced(w workload, spansPath string) (resultLine, error) {
	b.traceRun = true
	outs, err := w.run(b)
	if err != nil {
		return resultLine{}, err
	}
	base, o := outs[0], outs[1]
	if err := b.lay.tr.write(spansPath); err != nil {
		return resultLine{}, fmt.Errorf("writing spans: %w", err)
	}
	l := o.lay
	fmt.Fprintf(b.log, "spans: %d written to %s\n", len(b.lay.tr.spans), spansPath)
	names := make([]string, 0, len(l.self))
	for n := range l.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.log, "self time %-22s %10.4f s\n", n, l.self[n].Seconds())
	}

	secs := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	drain := secs(l.drainNS)
	exec := secs(l.execNS)
	mt := map[string]metric{
		"scenario.expand_s": measured(secs(b.expandNS), "s"),

		"fleet.lease_ops":   measured(float64(l.lease.ops()), "count"),
		"fleet.lease_s":     measured(l.lease.busy().Seconds(), "s"),
		"fleet.lease_share": measured(ratio(l.lease.busy().Seconds(), drain), "ratio"),
		"fleet.grid_id_s":   measured(secs(l.gridIDNS), "s"),
		"fleet.self_s":      measured(l.self["drain"].Seconds(), "s"),
		"fleet.takeovers":   measured(float64(l.takeovers), "count"),

		"sim.exec_s":          measured(exec, "s"),
		"sim.slot_busy_ratio": measured(ratio(exec, float64(b.nproc)*drain), "ratio"),
		"sim.simulated":       measured(float64(o.ctr.Simulated), "count"),
		"sim.store_hits":      measured(float64(o.ctr.DiskHits), "count"),
		"sim.mem_hits":        measured(float64(o.ctr.MemHits), "count"),
		"sim.failed":          measured(float64(o.failed), "count"),
		"sim.key_us":          measured(l.keyUS, "us"),
		"sim.store_load_us":   measured(l.loadUS, "us"),
		"sim.store_decode_us": measured(l.loadUS-l.loadGetUS, "us"),
		"sim.manifest_s":      measured(secs(l.manifestNS), "s"),

		"objstore.get_ops":    measured(float64(l.store.gets), "count"),
		"objstore.get_misses": measured(float64(l.store.getMisses), "count"),
		"objstore.get_us":     measured(perOp(l.store.getNS, l.store.gets), "us"),
		"objstore.get_bytes":  measured(float64(l.store.getBytes), "bytes"),
		"objstore.put_ops":    measured(float64(l.store.puts+l.store.putIfAbsents), "count"),
		"objstore.put_us":     measured(perOp(l.store.putNS+l.store.putIfAbsentNS, l.store.puts+l.store.putIfAbsents), "us"),
		"objstore.put_bytes":  measured(float64(l.store.putBytes), "bytes"),
		"objstore.errors":     measured(float64(l.store.errors), "count"),

		"workloads.build_s":     measured(secs(l.buildNS), "s"),
		"workloads.build_share": measured(ratio(secs(l.buildNS), exec), "ratio"),

		"core.new_s":                measured(secs(l.newNS), "s"),
		"core.run_s":                measured(secs(l.run.ns), "s"),
		"core.sim_cycles_per_s":     measured(l.run.perSec(), "1/s"),
		"core.uops_per_s":           measured(ratio(float64(l.committed), secs(l.run.ns)), "1/s"),
		"core.sim_cycles":           measured(float64(l.run.cycles), "count"),
		"core.useful_uop_ratio":     measured(ratio(float64(l.committed), float64(l.renamed)), "ratio"),
		"go.alloc_bytes_per_result": measured(ratio(float64(base.rt.allocBytes), float64(base.results)), "bytes"),
		"go.gc_cycles":              measured(float64(base.rt.gcCycles), "count"),
		"go.gc_cpu_s":               measured(base.rt.gcCPU, "s"),
		"trace.overhead_frac":       measured(1-ratio(o.rate(), base.rate()), "ratio"),
	}
	for _, fam := range []string{"spill", "chase", "vector", "branchy"} {
		mt["core."+fam+".sim_cycles_per_s"] = measured(l.byFamily[fam].perSec(), "1/s")
	}
	for _, kind := range []string{"isrb", "mit", "rda", "counters", "unlimited"} {
		mt["refcount."+kind+".sim_cycles_per_s"] = measured(l.byTracker[kind].perSec(), "1/s")
	}
	var d dispatchTiming
	if o.disp != nil {
		d = *o.disp
	}
	var server, queue, settle, encode []time.Duration
	for _, r := range d.recent {
		if r.Endpoint == "run" && r.Status == 200 {
			server = append(server, time.Duration(r.EncodedNS-r.AcceptedNS))
			queue = append(queue, time.Duration(r.DispatchedNS-r.QueuedNS))
			settle = append(settle, time.Duration(r.SettledNS-r.DispatchedNS))
			encode = append(encode, time.Duration(r.EncodedNS-r.SettledNS))
		}
	}
	us := func(ds []time.Duration, q float64) float64 { return quantile(ds, q) * 1e3 }
	mt["dispatch.rtt_us_p50"] = measured(us(d.rtt, 0.50), "us")
	mt["dispatch.rtt_us_p99"] = measured(us(d.rtt, 0.99), "us")
	mt["dispatch.server_us_p50"] = measured(us(server, 0.5), "us")
	mt["dispatch.queue_us_p50"] = measured(us(queue, 0.5), "us")
	mt["dispatch.settle_us_p50"] = measured(us(settle, 0.5), "us")
	mt["dispatch.encode_us_p50"] = measured(us(encode, 0.5), "us")
	mt["dispatch.resp_bytes"] = measured(ratio(float64(d.respB), float64(d.resps)), "bytes")
	mt["dispatch.rejected"] = measured(float64(d.rejected), "count")

	fmt.Fprintf(b.log, "results per second: %.1f untraced, %.1f traced\n", base.rate(), o.rate())
	baseOK, tracedOK := b.check(base), b.check(o)
	return resultLine{
		Correct:   baseOK && tracedOK,
		Attempted: base.attempted + o.attempted,
		Failed:    base.failed + o.failed,
		Metrics:   mt,
	}, nil
}
