// Package fleet drains one expanded scenario matrix across many hosts
// sharing one object-store bucket, with no coordinator. The grid is cut
// into shards of ShardCells consecutive cells; a host leases a shard by
// creating a claim object with PutIfAbsent in a lease area of the
// shared bucket, simulates the shard's requests through the ordinary
// sim.Runner (so results land in the shared store exactly as a
// single-host run would write them), and marks the claim done. Progress
// is a generation token bumped on every completed request: a challenger
// that watches a claim's (epoch, generation) stand still across enough
// polls seizes the lease with a higher epoch, so a crashed host's shard
// is re-run — resumably, because the finished requests are already in
// the store and come back as hits.
//
// Exactly-once execution falls out of the matrix shape rather than
// locking: scenario.Expand interns requests in cell order, so
// Matrix.FirstUse is nondecreasing and a shard's cells own exactly the
// requests first used by them. Hosts holding disjoint shards therefore
// simulate disjoint request sets, and the union over all shards is the
// whole grid. The manifest over the results store remains the
// single source of truth: when every shard is done, the store — and its
// root — is byte-identical to a single-host run of the same grid.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// ClaimSchema tags the claim object layout. Bump it when Claim changes
// incompatibly; hosts ignore (and eventually seize) claims of a foreign
// schema rather than misreading them.
const ClaimSchema = "fl1"

// Claim is one shard's lease object in the shared bucket's lease area.
//
//repro:wire
type Claim struct {
	Schema string `json:"schema"`
	// Grid identifies the exact expanded matrix (see GridID); a claim
	// for another grid can never collide because the grid is part of
	// the claim's name.
	Grid string `json:"grid"`
	// Shard is the claim's shard index.
	Shard int `json:"shard"`
	// Holder names the host currently draining the shard.
	Holder string `json:"holder"`
	// Epoch counts lease ownership changes: 1 for the first claimant,
	// +1 per stale-lease takeover. A holder that observes a claim with
	// an epoch above its own has lost the lease and must stand down.
	Epoch int `json:"epoch"`
	// Gen is the holder's progress token, bumped once per completed
	// request. Challengers detect staleness by watching (Epoch, Gen)
	// stand still, so liveness needs no clocks on the wire.
	Gen int `json:"gen"`
	// Done marks the shard fully simulated; done claims are never
	// seized.
	Done bool `json:"done"`
}

// GridID fingerprints one expanded matrix for fleet coordination: the
// scenario name, the shard geometry, the simulator version and every
// request key in order. Hosts drain the same grid if and only if their
// IDs match, so a spec edit, a different -shard-cells, different
// overrides or a rebuilt simulator can never split one shard's identity
// across incompatible request sets.
func GridID(m *scenario.Matrix, shardCells int) string {
	h := sha256.New()
	fmt.Fprintf(h, "fleet-grid\x00%s\x00%d\x00%s\x00", m.Spec.Name, shardCells, sim.Version())
	for _, r := range m.Requests {
		io.WriteString(h, sim.Key(r))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// claimName derives the 64-hex object name of one shard's claim, so
// claims live in the same namespace every backend already enforces.
func claimName(grid string, shard int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("fleet-claim\x00%s\x00%d", grid, shard)))
	return hex.EncodeToString(h[:])
}

// LeaseSpec derives the lease-area store spec from a results-store
// spec: a "leases" subtree of the same bucket, so the fleet needs no
// second deployment — but one that no manifest walk ever reads (the
// manifest visits only the 256 two-hex shard directories), keeping the
// results store byte-identical to a single-host run. mem: stores are
// rejected: each open creates a private map, so a lease area there
// could never be shared.
func LeaseSpec(storeSpec string) (string, error) {
	switch {
	case strings.HasPrefix(storeSpec, "fs:"):
		dir := strings.TrimPrefix(storeSpec, "fs:")
		if dir == "" {
			return "", fmt.Errorf("fleet: store spec %q has no directory", storeSpec)
		}
		return "fs:" + strings.TrimRight(dir, "/") + "/leases", nil
	case strings.HasPrefix(storeSpec, "s3://"):
		return strings.TrimRight(storeSpec, "/") + "/leases", nil
	default:
		return "", fmt.Errorf("fleet: store spec %q cannot host a shared lease area (want fs: or s3://)", storeSpec)
	}
}

// Range is a half-open cell range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Config parameterizes one host's Drain.
type Config struct {
	// Host names this host in claims it takes. Required.
	Host string
	// ShardCells is the lease granularity in cells. Every host draining
	// a grid must use the same value (it is part of the grid ID).
	// Default 64.
	ShardCells int
	// Cells restricts draining to a cell range. Lo must be
	// shard-aligned and Hi shard-aligned or the matrix total, so a
	// shard can never span the range boundary. The zero Range means the
	// whole matrix.
	Cells Range
	// StalePolls is the number of consecutive no-progress observations
	// of a held claim before this host seizes it. Default 5.
	StalePolls int
	// Sleep paces the poll loop when every remaining shard is held by a
	// live peer. Default: 500ms wall-clock sleep; tests inject
	// something faster. Returning an error aborts the drain.
	Sleep func(ctx context.Context) error
}

// Summary reports what one host's Drain did, in the JSON shape
// `regshared -drain` prints.
//
//repro:wire
type Summary struct {
	Schema     string `json:"schema"`
	Grid       string `json:"grid"`
	Scenario   string `json:"scenario"`
	Host       string `json:"host"`
	Cells      int    `json:"cells"`
	ShardCells int    `json:"shard_cells"`
	Shards     int    `json:"shards"`
	// Claimed counts shards this host drained to done; TakenOver the
	// subset it first seized from a stalled peer; PeerDone the shards
	// another host finished.
	Claimed   int `json:"claimed"`
	TakenOver int `json:"taken_over"`
	PeerDone  int `json:"peer_done"`
	// Requests is the unique request count owned by the cell range;
	// Simulated, StoreHits and MemHits split how this host's share was
	// satisfied.
	Requests  int `json:"requests"`
	Simulated int `json:"simulated"`
	StoreHits int `json:"store_hits"`
	MemHits   int `json:"mem_hits"`
}

// SummarySchema tags the Summary JSON.
const SummarySchema = "fd1"

// drainer carries one Drain invocation's state.
type drainer struct {
	m      *scenario.Matrix
	runner *sim.Runner
	leases objstore.Backend
	cfg    Config
	grid   string

	// shardReqs maps shard index -> indices into m.Requests owned by
	// the shard (FirstUse within the shard's cells).
	shardReqs map[int][]int

	// observed tracks each contested claim's last-seen progress and how
	// many consecutive polls it has stood still.
	observed map[int]claimState

	mu  sync.Mutex // guards sum counters written from Stream sinks
	sum Summary
}

// claimState is a challenger's view of a held claim.
type claimState struct {
	epoch, gen int
	done       bool
	stale      int
}

// Drain drains the cell range of m this host is configured for,
// coordinating with any other hosts draining the same grid through
// claim objects in leases. It returns when every shard in the range is
// done (drained here or by a peer), or with the first error — a context
// cancellation, a backend failure, or a simulation error.
func Drain(ctx context.Context, m *scenario.Matrix, runner *sim.Runner, leases objstore.Backend, cfg Config) (*Summary, error) {
	if cfg.Host == "" {
		return nil, fmt.Errorf("fleet: config needs a host name")
	}
	if cfg.ShardCells == 0 {
		cfg.ShardCells = 64
	}
	if cfg.ShardCells < 1 {
		return nil, fmt.Errorf("fleet: shard size %d must be positive", cfg.ShardCells)
	}
	if cfg.StalePolls == 0 {
		cfg.StalePolls = 5
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context) error {
			t := time.NewTimer(500 * time.Millisecond)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-t.C:
				return nil
			}
		}
	}
	total := len(m.Cells)
	if cfg.Cells == (Range{}) {
		cfg.Cells = Range{0, total}
	}
	r := cfg.Cells
	if r.Lo < 0 || r.Hi > total || r.Lo >= r.Hi {
		return nil, fmt.Errorf("fleet: cell range [%d, %d) outside the %d-cell matrix", r.Lo, r.Hi, total)
	}
	if r.Lo%cfg.ShardCells != 0 || (r.Hi%cfg.ShardCells != 0 && r.Hi != total) {
		return nil, fmt.Errorf("fleet: cell range [%d, %d) must align to the %d-cell shard grid (shards are absolute, so a misaligned range would split a lease)",
			r.Lo, r.Hi, cfg.ShardCells)
	}

	d := &drainer{
		m: m, runner: runner, leases: leases, cfg: cfg,
		grid:      GridID(m, cfg.ShardCells),
		shardReqs: make(map[int][]int),
		observed:  make(map[int]claimState),
	}
	d.sum = Summary{
		Schema:     SummarySchema,
		Grid:       d.grid,
		Scenario:   m.Spec.Name,
		Host:       cfg.Host,
		Cells:      r.Hi - r.Lo,
		ShardCells: cfg.ShardCells,
	}

	// Partition the range's requests by owning shard. FirstUse is
	// nondecreasing, so each shard's set is a contiguous slice of the
	// request list and their union covers the range exactly once.
	var pending []int
	for s := r.Lo / cfg.ShardCells; s*cfg.ShardCells < r.Hi; s++ {
		pending = append(pending, s)
	}
	d.sum.Shards = len(pending)
	for i, cell := range m.FirstUse {
		if cell >= r.Lo && cell < r.Hi {
			s := cell / cfg.ShardCells
			d.shardReqs[s] = append(d.shardReqs[s], i)
			d.sum.Requests++
		}
	}

	for len(pending) > 0 {
		progressed := false
		remaining := pending[:0]
		for _, s := range pending {
			finished, err := d.visit(ctx, s)
			if err != nil {
				return nil, err
			}
			if finished {
				progressed = true
			} else {
				remaining = append(remaining, s)
			}
		}
		pending = remaining
		if len(pending) > 0 && !progressed {
			if err := ctx.Err(); err != nil {
				return nil, context.Cause(ctx)
			}
			if err := d.cfg.Sleep(ctx); err != nil {
				return nil, err
			}
		}
	}
	return &d.sum, nil
}

// visit makes one attempt at shard s: acquire it and drain it, observe
// a peer's completed claim, or note a held claim's progress for stale
// detection. It reports whether the shard is finished (by us or a
// peer).
func (d *drainer) visit(ctx context.Context, s int) (bool, error) {
	cl, held, err := d.read(ctx, s)
	if err != nil {
		return false, err
	}
	switch {
	case !held:
		// Unclaimed: race for it. Losing the race is not an error — the
		// winner shows up as a held claim on the next pass.
		cl = Claim{Schema: ClaimSchema, Grid: d.grid, Shard: s, Holder: d.cfg.Host, Epoch: 1}
		won, err := d.write(ctx, s, cl, true)
		if err != nil {
			return false, err
		}
		if !won {
			return false, nil
		}
	case cl.Done:
		d.sum.PeerDone++
		return true, nil
	case cl.Holder == d.cfg.Host:
		// Our own claim from an earlier, interrupted run of this
		// process's host name: treat it as held until it goes stale,
		// then the takeover path below re-acquires it.
		fallthrough
	default:
		st := d.observed[s]
		if st.epoch == cl.Epoch && st.gen == cl.Gen {
			st.stale++
		} else {
			st = claimState{epoch: cl.Epoch, gen: cl.Gen}
		}
		d.observed[s] = st
		if st.stale < d.cfg.StalePolls {
			return false, nil
		}
		// Stale: seize with a higher epoch. Put is last-writer-wins, so
		// re-read to learn whether our takeover stuck before draining.
		cl = Claim{Schema: ClaimSchema, Grid: d.grid, Shard: s, Holder: d.cfg.Host, Epoch: cl.Epoch + 1}
		if _, err := d.write(ctx, s, cl, false); err != nil {
			return false, err
		}
		cur, held, err := d.read(ctx, s)
		if err != nil {
			return false, err
		}
		if !held || cur.Holder != d.cfg.Host || cur.Epoch != cl.Epoch {
			d.observed[s] = claimState{epoch: cur.Epoch, gen: cur.Gen}
			return false, nil
		}
		d.sum.TakenOver++
	}
	delete(d.observed, s)
	return d.drainShard(ctx, s, cl)
}

// drainShard runs the shard's owned requests under the claim cl, which
// this host holds. Every completed request bumps the claim's
// generation after re-checking ownership; losing the lease mid-shard
// cancels the remaining requests and leaves the shard pending.
func (d *drainer) drainShard(ctx context.Context, s int, cl Claim) (bool, error) {
	reqs := make([]sim.Request, len(d.shardReqs[s]))
	for i, at := range d.shardReqs[s] {
		reqs[i] = d.m.Requests[at]
	}

	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var lost bool
	var sinkErr error
	var mu sync.Mutex
	sink := func(ev sim.Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Err != nil || lost || sinkErr != nil {
			return
		}
		d.count(ev)
		ok, err := d.bump(ctx, s, &cl)
		if err != nil {
			sinkErr = err
			cancel(err)
			return
		}
		if !ok {
			lost = true
			cancel(fmt.Errorf("fleet: shard %d lease lost to a takeover", s))
		}
	}
	_, err := d.runner.Stream(shardCtx, reqs, sink)
	if sinkErr != nil {
		return false, sinkErr
	}
	if lost {
		// The seizing host owns the shard now; watch it like any other
		// held claim.
		return false, nil
	}
	if err != nil {
		return false, err
	}

	// Mark done — unless the lease moved while we were finishing up.
	cur, held, err := d.read(ctx, s)
	if err != nil {
		return false, err
	}
	if !held || cur.Holder != d.cfg.Host || cur.Epoch != cl.Epoch {
		return false, nil
	}
	cl.Done = true
	if _, err := d.write(ctx, s, cl, false); err != nil {
		return false, err
	}
	d.sum.Claimed++
	return true, nil
}

// count folds one completion event into the summary counters.
func (d *drainer) count(ev sim.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch ev.Source {
	case sim.SourceSimulated:
		d.sum.Simulated++
	case sim.SourceStore:
		d.sum.StoreHits++
	case sim.SourceMemory:
		d.sum.MemHits++
	}
}

// bump advances the claim's generation token if this host still holds
// the lease, reporting whether it does.
func (d *drainer) bump(ctx context.Context, s int, cl *Claim) (bool, error) {
	cur, held, err := d.read(ctx, s)
	if err != nil {
		return false, err
	}
	if !held || cur.Holder != d.cfg.Host || cur.Epoch != cl.Epoch {
		return false, nil
	}
	cl.Gen++
	if _, err := d.write(ctx, s, *cl, false); err != nil {
		return false, err
	}
	return true, nil
}

// read fetches and decodes shard s's claim. A missing object, an
// undecodable one or one of a foreign schema or grid reads as unheld.
func (d *drainer) read(ctx context.Context, s int) (Claim, bool, error) {
	data, err := d.leases.Get(ctx, claimName(d.grid, s))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Claim{}, false, nil
		}
		return Claim{}, false, fmt.Errorf("fleet: reading shard %d claim: %w", s, err)
	}
	var cl Claim
	if err := json.Unmarshal(data, &cl); err != nil {
		return Claim{}, false, nil
	}
	if cl.Schema != ClaimSchema || cl.Grid != d.grid {
		return Claim{}, false, nil
	}
	return cl, true, nil
}

// write stores shard s's claim, via PutIfAbsent when ifAbsent (the
// initial race) and Put otherwise (progress bumps, takeovers, done
// marks).
func (d *drainer) write(ctx context.Context, s int, cl Claim, ifAbsent bool) (bool, error) {
	data, err := json.Marshal(cl)
	if err != nil {
		return false, err
	}
	name := claimName(d.grid, s)
	if ifAbsent {
		won, err := d.leases.PutIfAbsent(ctx, name, data)
		if err != nil {
			return false, fmt.Errorf("fleet: claiming shard %d: %w", s, err)
		}
		return won, nil
	}
	if err := d.leases.Put(ctx, name, data); err != nil {
		return false, fmt.Errorf("fleet: writing shard %d claim: %w", s, err)
	}
	return true, nil
}

// Shards lists the absolute shard indices covering the cell range r of
// an n-cell matrix at the given shard size — what commands print when
// describing a drain before starting it.
func Shards(r Range, n, shardCells int) []int {
	if r == (Range{}) {
		r = Range{0, n}
	}
	var out []int
	for s := r.Lo / shardCells; s*shardCells < r.Hi; s++ {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
