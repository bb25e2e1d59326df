package dispatch

import (
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/sim"
)

// Request-level observability for the regshared service. Every request
// that reaches the Service is stamped at each stage boundary — accepted,
// queued, dispatched, settled, encoded — as Unix-ns timestamps in a
// flat, CSV/JSON-friendly RequestMetrics, aggregated into service-wide
// counters plus a latency histogram, and kept in a
// fixed-size ring the /v1/requests/recent endpoint serves. None of this
// touches simulated results: the determinism contract covers what the
// simulator computes, and these are wall-clock annotations about when
// the service moved it.

// nowNS is the one wall-clock read the metrics layer uses.
func nowNS() int64 {
	return time.Now().UnixNano() //repro:allow nodeterm -- request-timing metadata, never part of a simulated result
}

// RequestMetrics records one request's trip through the service as flat
// Unix-ns stage stamps. A stamp is zero when the request never reached
// that stage (a 429 has no DispatchedNS; a malformed body never reaches
// the queue, so it has no QueuedNS either).
//
//repro:wire
type RequestMetrics struct {
	// Seq is the service-lifetime sequence number (1-based, assigned
	// at acceptance).
	Seq uint64 `json:"seq"`
	// Endpoint is the logical endpoint: "run", the service's one
	// execution endpoint.
	Endpoint string `json:"endpoint"`
	// Client identifies the submitter: the X-Client header if present,
	// else the remote host.
	Client string `json:"client"`
	// Bench echoes the request's benchmark.
	Bench string `json:"bench,omitempty"`
	// Key is the deduplication/store key, once known.
	Key string `json:"key,omitempty"`
	// AcceptedNS: the handler started reading the request.
	AcceptedNS int64 `json:"accepted_ns"`
	// QueuedNS: the request entered the admission queue.
	QueuedNS int64 `json:"queued_ns,omitempty"`
	// DispatchedNS: admission granted, handed to the runner.
	DispatchedNS int64 `json:"dispatched_ns,omitempty"`
	// SettledNS: the runner (or store lookup) produced the outcome —
	// simulated, in-memory join, or store hit, per Source.
	SettledNS int64 `json:"settled_ns,omitempty"`
	// EncodedNS: the response was written.
	EncodedNS int64 `json:"encoded_ns"`
	// Source is the result's provenance ("simulated", "memory",
	// "store"), empty on failures.
	Source string `json:"source,omitempty"`
	// Status is the HTTP status sent.
	Status int `json:"status"`
}

// runEndpoint is the wire name of POST /v1/run in RequestMetrics and
// the /metrics endpoint list.
const runEndpoint = "run"

// histBuckets is the fixed bucket count: bucket b covers latencies in
// [1µs·2^(b-1), 1µs·2^b), so 32 buckets reach ~35 minutes.
const histBuckets = 32

// histogram is a fixed-bucket latency histogram: power-of-two bucket
// bounds starting at 1µs, no allocations, no dependencies. Quantiles
// come back as the upper bound of the covering bucket (≤2x
// overestimate), clamped to the observed maximum.
type histogram struct {
	count   uint64
	buckets [histBuckets]uint64
	maxNS   int64
}

// observe records one latency.
func (h *histogram) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count++
	if ns > h.maxNS {
		h.maxNS = ns
	}
	b := 0
	for bound := int64(1000); b < histBuckets-1 && ns >= bound; b++ {
		bound <<= 1
	}
	h.buckets[b]++
}

// quantile returns the latency at quantile q in [0,1].
func (h *histogram) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for b := range histBuckets {
		cum += h.buckets[b]
		if cum > rank {
			ub := int64(1000) << b
			if ub > h.maxNS {
				ub = h.maxNS
			}
			return ub
		}
	}
	return h.maxNS
}

// EndpointMetrics is one endpoint's aggregate in a MetricsSnapshot:
// lifetime counts of its finished requests and of the non-2xx answers
// among them (admission rejections included), and its latency
// quantiles.
//
//repro:wire
type EndpointMetrics struct {
	Endpoint string `json:"endpoint"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
	MaxNS    int64  `json:"max_ns"`
}

// MetricsSnapshot is the GET /metrics response: service-lifetime
// counters, the live gauges, the runner's provenance counters and the
// endpoint aggregates (one, "run"). All timestamps are Unix ns; all
// latencies are ns.
//
//repro:wire
type MetricsSnapshot struct {
	StartedNS int64 `json:"started_ns"`
	NowNS     int64 `json:"now_ns"`

	// Request counters: Accepted = Completed + Errors + Rejected +
	// whatever is still in flight or queued.
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	Rejected  uint64 `json:"rejected"`

	// Live gauges.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	// Runner provenance counters (see sim.Counters) and the hit rate
	// they imply: (MemHits+StoreHits) / all settled requests.
	Simulated uint64  `json:"simulated"`
	MemHits   uint64  `json:"mem_hits"`
	StoreHits uint64  `json:"store_hits"`
	HitRate   float64 `json:"hit_rate"`

	// Delivered work: simulated cycles shipped to clients (store and
	// memory hits included — this measures service throughput, not
	// simulator speed) and that sum over the service's uptime.
	CyclesDelivered uint64  `json:"cycles_delivered"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`

	// Store counters (see objstore.TierStats): the backend operations
	// the result store performed. Zero/absent when the service has no
	// store.
	StoreGets  int64 `json:"store_gets,omitempty"`
	StorePuts  int64 `json:"store_puts,omitempty"`
	StoreLists int64 `json:"store_lists,omitempty"`

	Endpoints []EndpointMetrics `json:"endpoints"`
}

// metrics aggregates the service's request observability: counters,
// the latency histogram and the recent-request ring.
type metrics struct {
	startNS int64
	recentN int

	mu              sync.Mutex
	seq             uint64
	inFlight        int
	accepted        uint64
	completed       uint64
	errored         uint64
	rejected        uint64
	cyclesDelivered uint64
	latency         histogram // accepted → encoded, every finished request
	ring            []RequestMetrics
	ringNext        int
	ringFull        bool
}

// newMetrics builds the aggregator with a recent-ring capacity of n.
func newMetrics(n int) *metrics {
	if n < 1 {
		n = 1
	}
	return &metrics{startNS: nowNS(), recentN: n, ring: make([]RequestMetrics, 0, n)}
}

// accept opens a request's record and stamps AcceptedNS.
func (m *metrics) accept(client string) *RequestMetrics {
	m.mu.Lock()
	m.seq++
	m.accepted++
	seq := m.seq
	m.mu.Unlock()
	return &RequestMetrics{
		Seq:        seq,
		Endpoint:   runEndpoint,
		Client:     client,
		AcceptedNS: nowNS(),
	}
}

// queued stamps the admission-queue entry.
func (m *metrics) queued(rm *RequestMetrics) { rm.QueuedNS = nowNS() }

// dispatched stamps the hand-off to the runner and raises the in-flight
// gauge.
func (m *metrics) dispatched(rm *RequestMetrics) {
	rm.DispatchedNS = nowNS()
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

// settled stamps the outcome (simulated / memory join / store hit).
func (m *metrics) settled(rm *RequestMetrics, source string) {
	rm.SettledNS = nowNS()
	rm.Source = source
}

// finish stamps EncodedNS, classifies the outcome by status, credits
// delivered cycles, feeds the latency histogram and pushes the record
// into the recent ring. It must be called exactly once per record,
// after the response is written.
func (m *metrics) finish(rm *RequestMetrics, status int, cycles uint64) {
	rm.EncodedNS = nowNS()
	rm.Status = status
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm.DispatchedNS != 0 {
		m.inFlight--
	}
	switch {
	case status == 429:
		m.rejected++
	case status >= 400:
		m.errored++
	default:
		m.completed++
	}
	m.cyclesDelivered += cycles
	m.latency.observe(rm.EncodedNS - rm.AcceptedNS)
	if len(m.ring) < m.recentN {
		m.ring = append(m.ring, *rm)
		m.ringNext = len(m.ring) % m.recentN
		m.ringFull = len(m.ring) == m.recentN
		return
	}
	m.ring[m.ringNext] = *rm
	m.ringNext = (m.ringNext + 1) % m.recentN
}

// snapshot assembles the /metrics response from the aggregator, the
// runner's provenance counters, the admission queue depth and the
// store's backend operation counters.
func (m *metrics) snapshot(ctr sim.Counters, queueDepth int, tier objstore.TierStats) MetricsSnapshot {
	now := nowNS()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MetricsSnapshot{
		StartedNS:       m.startNS,
		NowNS:           now,
		Accepted:        m.accepted,
		Completed:       m.completed,
		Errors:          m.errored,
		Rejected:        m.rejected,
		InFlight:        m.inFlight,
		QueueDepth:      queueDepth,
		Simulated:       ctr.Simulated,
		MemHits:         ctr.MemHits,
		StoreHits:       ctr.DiskHits,
		CyclesDelivered: m.cyclesDelivered,
		StoreGets:       tier.Gets,
		StorePuts:       tier.Puts,
		StoreLists:      tier.Lists,
		Endpoints:       make([]EndpointMetrics, 0, 1),
	}
	if settled := ctr.Simulated + ctr.MemHits + ctr.DiskHits; settled > 0 {
		s.HitRate = float64(ctr.MemHits+ctr.DiskHits) / float64(settled)
	}
	if up := float64(now-m.startNS) / 1e9; up > 0 {
		s.CyclesPerSec = float64(m.cyclesDelivered) / up
	}
	if h := &m.latency; h.count > 0 {
		s.Endpoints = append(s.Endpoints, EndpointMetrics{
			Endpoint: runEndpoint,
			Requests: h.count,
			Errors:   m.errored + m.rejected,
			P50NS:    h.quantile(0.50),
			P99NS:    h.quantile(0.99),
			MaxNS:    h.maxNS,
		})
	}
	return s
}

// recent returns up to n most-recent finished requests, newest first.
func (m *metrics) recent(n int) []RequestMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	size := len(m.ring)
	if n < 1 || n > size {
		n = size
	}
	out := make([]RequestMetrics, 0, n)
	// Newest is the slot just before ringNext once the ring wrapped;
	// before that, it is simply the last append.
	newest := len(m.ring) - 1
	if m.ringFull {
		newest = (m.ringNext - 1 + size) % size
	}
	for i := range n {
		out = append(out, m.ring[(newest-i+size)%size])
	}
	return out
}
