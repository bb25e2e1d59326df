package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
)

// call is one client-side POST /v1/run, for the traced run's spans.
type call struct {
	key        string
	start, end int64 // Unix ns
}

// dispatchTiming is what the traced serve-warm phase measured of the
// dispatch layer.
type dispatchTiming struct {
	rtt      []time.Duration
	recent   []dispatch.RequestMetrics
	respB    int64 // response bytes written during the timed loop
	resps    int64 // responses written during the timed loop
	rejected uint64
}

// countingHandler counts the bytes and responses a handler writes.
type countingHandler struct {
	inner        http.Handler
	bytes, resps atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	h.bytes.Add(cw.n)
	h.resps.Add(1)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// server is one in-process dispatch.Service on a 127.0.0.1 listener,
// with the one client every caller shares.
type server struct {
	runner  *sim.Runner
	srv     *http.Server
	served  chan error
	base    string
	client  *dispatch.HTTP
	counter *countingHandler // traced only
}

// startServer serves dispatch.NewService over store with a runner nproc
// wide. The listener is open before it returns, so the first request
// needs no readiness wait. Traced, the service keeps the last recent
// requests' stage stamps and its handler counts what it writes.
func (b *bench) startServer(store *sim.Store, recent int) (*server, error) {
	s := &server{runner: sim.New(sim.WithStore(store), sim.WithWorkers(b.nproc)), served: make(chan error, 1)}
	var opts []dispatch.ServiceOption
	if b.lay != nil {
		opts = append(opts, dispatch.WithRecent(recent))
	}
	handler := dispatch.NewService(s.runner, store, opts...).Handler()
	if b.lay != nil {
		s.counter = &countingHandler{inner: handler}
		handler = s.counter
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = dispatch.NewHTTP(s.base)
	return s, nil
}

// stop shuts the service down and waits for its serving goroutine.
func (s *server) stop(ctx context.Context) error {
	s.client.Close()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// warmUp makes one call per request of the grid, so every later call is
// a runner memory hit, and checks each result against the reference.
func warmUp(ctx context.Context, s *server, w *warmState, o *outcome) {
	for i, req := range w.m.Requests {
		o.attempted++
		if res, err := s.client.Execute(ctx, req); err != nil || *res != *w.refs[w.keys[i]] {
			o.failed++
		}
	}
}

// serveWarm sets up by filling a store at the short run lengths, serving
// it and warming the service's runner with one call per request. The
// timed region is a closed loop of nproc callers; every result is
// compared with the stored one.
func (b *bench) serveWarm() (outs []*outcome, err error) {
	ctx := context.Background()
	// One keep-alive connection per caller: the stock transport, which
	// dispatch.HTTP uses, keeps only two idle connections per host.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = max(t.MaxIdleConnsPerHost, b.nproc)
	}
	fill := &outcome{}
	var w *warmState
	var s *server
	defer func() {
		if s != nil {
			if serr := s.stop(ctx); err == nil {
				err = serr
			}
		}
		if w != nil {
			w.store.Close()
		}
	}()
	setup, err := b.setUp(warmSetupRounds,
		func() error {
			err := s.stop(ctx)
			s = nil
			if cerr := w.store.Close(); err == nil {
				err = cerr
			}
			w = nil
			return err
		},
		func() (err error) {
			if w, err = b.warmSetup(ctx, fill); err != nil {
				return err
			}
			if s, err = b.startServer(w.store, 0); err != nil {
				return err
			}
			warmUp(ctx, s, w, fill)
			return nil
		})
	if err != nil {
		return nil, err
	}
	b.logGrid(w.m, 1)
	calls := b.work(b.seconds * serveCallsPerSecond)
	for _, traced := range b.phases() {
		o := &outcome{setup: setup, digests: fill.digests}
		store := w.store
		if traced {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
			s = nil
			b.trace()
			b.lay.register(w.m)
			if store, err = b.openStore(w.storeSpec); err != nil {
				return nil, err
			}
			if s, err = b.startServer(store, calls); err != nil {
				return nil, err
			}
			warmUp(ctx, s, w, o)
		} else {
			o.attempted, o.failed = fill.attempted, fill.failed
		}
		if err := b.serve(ctx, s, w, calls, o); err != nil {
			return nil, err
		}
		if traced {
			o.lay = b.lay.snapshot()
			b.probe(ctx, w.m, store, o.lay)
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// serve times a closed loop of nproc callers sharing the server's
// client, each waiting for its reply before its next POST /v1/run. The
// callers walk one seeded permutation of the grid, interleaved. The loop
// runs in segments, each rated on its own, so a stretch of host
// contention moves a few segment rates rather than the reported one.
func (b *bench) serve(ctx context.Context, s *server, w *warmState, calls int, o *outcome) error {
	order := rand.New(rand.NewPCG(b.seed, 0)).Perm(len(w.m.Requests))
	lat := make([][]time.Duration, b.nproc)
	traces := make([][]call, b.nproc)
	fails := make([]int, b.nproc)
	for c := range b.nproc {
		lat[c] = make([]time.Duration, 0, calls/b.nproc+1)
	}
	var bytes0, resps0 int64
	if b.lay != nil {
		bytes0, resps0 = s.counter.bytes.Load(), s.counter.resps.Load()
		b.lay.store.reset() // the warm-up's store hits are set-up
	}
	ctr0 := s.runner.Counters()
	runtime.GC()
	var g0 goStats
	if b.traceRun {
		g0 = readGo()
	}
	segments := min(serveSegments, calls)
	for seg := range segments {
		lo, hi := seg*calls/segments, (seg+1)*calls/segments
		start := time.Now()
		var wg sync.WaitGroup
		for c := range b.nproc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := lo + c; j < hi; j += b.nproc {
					i := order[j%len(order)]
					t0 := time.Now()
					res, err := s.client.Execute(ctx, w.m.Requests[i])
					t1 := time.Now()
					lat[c] = append(lat[c], t1.Sub(t0))
					if b.lay != nil {
						traces[c] = append(traces[c], call{w.keys[i], t0.UnixNano(), t1.UnixNano()})
					}
					if err != nil || *res != *w.refs[w.keys[i]] {
						fails[c]++
					}
				}
			}()
		}
		wg.Wait()
		el := time.Since(start)
		failed := 0
		for c := range b.nproc {
			failed += fails[c]
			fails[c] = 0
		}
		o.elapsed += el
		o.failed += failed
		o.results += hi - lo - failed
		o.rates = append(o.rates, float64(hi-lo-failed)/el.Seconds())
	}
	if b.traceRun {
		o.rt = readGo().since(g0)
	}
	c1 := s.runner.Counters()
	o.ctr = sim.Counters{Simulated: c1.Simulated - ctr0.Simulated, MemHits: c1.MemHits - ctr0.MemHits, DiskHits: c1.DiskHits - ctr0.DiskHits}
	for c := range b.nproc {
		o.lat = append(o.lat, lat[c]...)
	}
	o.attempted += calls
	if b.lay == nil {
		return nil
	}

	dt := &dispatchTiming{rtt: o.lat, respB: s.counter.bytes.Load() - bytes0, resps: s.counter.resps.Load() - resps0}
	snap, err := s.client.Metrics(ctx)
	if err != nil {
		return err
	}
	dt.rejected = snap.Rejected
	if dt.recent, err = recent(ctx, s.base, calls); err != nil {
		return err
	}
	o.disp = dt
	b.callSpans(traces, dt.recent)
	return nil
}

// recent fetches the service's last n stage-stamped requests.
func recent(ctx context.Context, base string, n int) ([]dispatch.RequestMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/requests/recent?n=%d", base, n), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/requests/recent: %s", resp.Status)
	}
	var out []dispatch.RequestMetrics
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /v1/requests/recent: %w", err)
	}
	return out, nil
}

// callSpans records an http.call span per client call and, under the
// call that contains it, the service.queue, service.settle and
// service.encode spans taken from the matching request's stage stamps.
func (b *bench) callSpans(traces [][]call, recs []dispatch.RequestMetrics) {
	tr := b.lay.tr
	var all []call
	for _, cs := range traces {
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	ids := make([]int64, len(all))
	spans := make([]span, 0, len(all)+3*len(recs))
	for i, c := range all {
		ids[i] = tr.newID()
		spans = append(spans, span{ID: ids[i], Name: "http.call", Req: c.key, Start: tr.wall(c.start), End: tr.wall(c.end)})
	}
	for _, r := range recs {
		if r.Endpoint != "run" || r.DispatchedNS == 0 || r.SettledNS == 0 {
			continue
		}
		// The containing call started last at or before the request was
		// accepted; callers overlap, so look back past the other callers.
		at := sort.Search(len(all), func(i int) bool { return all[i].start > r.AcceptedNS }) - 1
		for i := at; i >= 0 && i > at-4*b.nproc; i-- {
			if all[i].key == r.Key && all[i].end >= r.EncodedNS {
				spans = append(spans,
					span{ID: tr.newID(), Parent: ids[i], Name: "service.queue", Req: r.Key, Start: tr.wall(r.QueuedNS), End: tr.wall(r.DispatchedNS)},
					span{ID: tr.newID(), Parent: ids[i], Name: "service.settle", Req: r.Key, Start: tr.wall(r.DispatchedNS), End: tr.wall(r.SettledNS)},
					span{ID: tr.newID(), Parent: ids[i], Name: "service.encode", Req: r.Key, Start: tr.wall(r.SettledNS), End: tr.wall(r.EncodedNS)},
				)
				break
			}
		}
	}
	tr.add(spans...)
}
