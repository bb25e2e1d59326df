package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objstore"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The traced run records spans from this package only, around calls
// into each layer's public functions: a timing objstore.Backend under
// the result store and under the fleet lease area, a traced executor
// behind sim.WithExecutor, and client-side timing of the HTTP calls.
// The untraced run builds the same stack with none of these wrappers.

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's origin; Req is the request's sim.Key when known.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory until exit.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	// root is the open phase span (a drain or the manifest): the parent
	// of executor, store and lease spans, which run on runner goroutines
	// that cannot see their caller.
	root atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now reads the monotonic clock relative to the origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// wall converts a Unix-ns wall-clock stamp (the service's stage
// stamps) to the tracer's time base.
func (t *tracer) wall(unixNS int64) int64 { return unixNS - t.origin.UnixNano() }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// open starts a phase span that later executor, store and lease spans
// nest under; the returned func closes it and returns its duration.
func (t *tracer) open(name string) func() time.Duration {
	id, start := t.newID(), t.now()
	t.root.Store(id)
	return func() time.Duration {
		end := t.now()
		t.root.Store(0)
		t.add(span{ID: id, Name: name, Start: start, End: end})
		return time.Duration(end - start)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			sum += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// opStats counts one wrapped backend's operations.
type opStats struct {
	gets, getMisses, getBytes, getNS atomic.Int64
	puts, putBytes, putNS            atomic.Int64
	putIfAbsents, putIfAbsentNS      atomic.Int64
	errors                           atomic.Int64
}

// reset zeroes the counters, so they cover only what follows.
func (o *opStats) reset() {
	for _, c := range []*atomic.Int64{&o.gets, &o.getMisses, &o.getBytes, &o.getNS, &o.puts, &o.putBytes, &o.putNS, &o.putIfAbsents, &o.putIfAbsentNS, &o.errors} {
		c.Store(0)
	}
}

// timedBackend times every Get, Put and PutIfAbsent of the backend it
// wraps and records each as a span named kind+".get" and so on. The
// manifest-only calls (List, Stat, Generation) pass through untimed.
type timedBackend struct {
	objstore.Backend
	t    *tracer
	kind string
	// ids maps entry names to request ids (sim.Key); nil for lease
	// areas, whose objects are shard claims. Read-only once built.
	ids map[string]string
	ops *opStats
}

func (b *timedBackend) record(op, name string, start, end int64, err error) {
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		b.ops.errors.Add(1)
	}
	b.t.add(span{ID: b.t.newID(), Parent: b.t.root.Load(), Name: b.kind + "." + op, Req: b.ids[name], Start: start, End: end})
}

func (b *timedBackend) Get(ctx context.Context, name string) ([]byte, error) {
	start := b.t.now()
	data, err := b.Backend.Get(ctx, name)
	end := b.t.now()
	b.ops.gets.Add(1)
	b.ops.getNS.Add(end - start)
	b.ops.getBytes.Add(int64(len(data)))
	if errors.Is(err, fs.ErrNotExist) {
		b.ops.getMisses.Add(1)
	}
	b.record("get", name, start, end, err)
	return data, err
}

func (b *timedBackend) Put(ctx context.Context, name string, data []byte) error {
	start := b.t.now()
	err := b.Backend.Put(ctx, name, data)
	end := b.t.now()
	b.ops.puts.Add(1)
	b.ops.putNS.Add(end - start)
	b.ops.putBytes.Add(int64(len(data)))
	b.record("put", name, start, end, err)
	return err
}

func (b *timedBackend) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	start := b.t.now()
	won, err := b.Backend.PutIfAbsent(ctx, name, data)
	end := b.t.now()
	b.ops.putIfAbsents.Add(1)
	b.ops.putIfAbsentNS.Add(end - start)
	b.ops.putBytes.Add(int64(len(data)))
	b.record("put_if_absent", name, start, end, err)
	return won, err
}

// rate accumulates simulated cycles and the RunContext time they took.
type rate struct {
	cycles uint64
	ns     int64
}

func (r rate) perSec() float64 {
	if r.ns == 0 {
		return 0
	}
	return float64(r.cycles) / time.Duration(r.ns).Seconds()
}

// execStats aggregates the traced executor's timings.
type execStats struct {
	mu                     sync.Mutex
	execNS, buildNS, newNS int64
	run                    rate
	committed, renamed     uint64
	byFamily, byTracker    map[string]rate
}

// executor is sim.Simulate with every call timed: the same public
// functions in the same order — workloads.Resolve/Build, core.New,
// Core.RunContext, sim.Snapshot — so results stay bit-identical.
func executor(t *tracer, st *execStats) sim.Executor {
	return func(ctx context.Context, req sim.Request) (*sim.Result, error) {
		if err := req.Validate(); err != nil {
			return nil, err
		}
		key := sim.Key(req)
		id, parent := t.newID(), t.root.Load()
		t0 := t.now()
		spec, err := workloads.Resolve(req.Bench)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %w %q", sim.ErrUnknownBenchmark, req.Bench)
		}
		prog := workloads.Build(spec)
		t1 := t.now()
		c := core.New(req.Config, prog)
		t2 := t.now()
		stats, err := c.RunContext(ctx, req.Warmup, req.Measure)
		t3 := t.now()
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w: %w", req.Bench, sim.ErrCanceled, err)
		}
		res := sim.Snapshot(req.Bench, prog.NumInsts(), c, stats)
		t4 := t.now()
		t.add(
			span{ID: id, Parent: parent, Name: "exec", Req: key, Start: t0, End: t4},
			span{ID: t.newID(), Parent: id, Name: "workloads.build", Req: key, Start: t0, End: t1},
			span{ID: t.newID(), Parent: id, Name: "core.new", Req: key, Start: t1, End: t2},
			span{ID: t.newID(), Parent: id, Name: "core.run", Req: key, Start: t2, End: t3},
		)

		run := rate{cycles: stats.Cycles, ns: t3 - t2}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.byFamily == nil {
			st.byFamily, st.byTracker = make(map[string]rate), make(map[string]rate)
		}
		st.execNS += t4 - t0
		st.buildNS += t1 - t0
		st.newNS += t2 - t1
		st.run = st.run.plus(run)
		st.committed += stats.Committed
		st.renamed += stats.RenamedUops
		fam := family(req.Bench)
		st.byFamily[fam] = st.byFamily[fam].plus(run)
		kind := string(req.Config.Tracker.Kind)
		st.byTracker[kind] = st.byTracker[kind].plus(run)
		return res, nil
	}
}

func (r rate) plus(o rate) rate { return rate{r.cycles + o.cycles, r.ns + o.ns} }

// family names a gen: workload's generator family ("gen:chase?…" →
// "chase"); catalog names are their own family.
func family(bench string) string {
	name := strings.TrimPrefix(bench, "gen:")
	fam, _, _ := strings.Cut(name, "?")
	return fam
}
