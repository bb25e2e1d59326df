// Package fleet drains one expanded scenario matrix across many hosts
// sharing one fs: store directory, with no coordinator. The grid is cut
// into shards of ShardCells consecutive cells; a host leases a shard by
// creating a claim object with PutIfAbsent in a lease area of the
// shared directory, simulates the shard's requests through the ordinary
// sim.Runner (so results land in the shared store exactly as a
// single-host run would write them), and marks the claim done. Progress
// is a generation token bumped after every request the shard simulates,
// the only work long enough to need a heartbeat; a hit writes nothing a
// seizing host would not write byte for byte, so it bumps nothing. A
// challenger that watches a claim's (epoch, generation) stand still
// across enough polls seizes the lease with a higher epoch, so a crashed
// host's shard is re-run — resumably, because the finished requests are
// already in the store and come back as hits.
//
// Exactly-once settlement falls out of the matrix shape rather than
// locking: scenario.Expand interns requests in cell order, so
// Matrix.FirstUse is nondecreasing and a shard's cells own exactly the
// requests first used by them. Hosts holding disjoint shards therefore
// settle disjoint request sets, and the union over all shards is the
// whole grid. A host simulates only the requests of a shard that no run
// it holds serves (see sim.Runner), so how many it simulates depends on
// the shards it drained before; what it stores does not. The manifest
// over the results store remains the single source of truth: when every
// shard is done, the store — and its root — is byte-identical to a
// single-host run of the same grid.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"strings"
	"time"

	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wirejson"
)

// ClaimSchema tags the claim object layout. Bump it when Claim changes
// incompatibly; hosts never misread a claim of a foreign schema: like
// one that does not decode, it reads as held by a host that never
// progresses, and is seized once stale.
const ClaimSchema = "fl1"

// Claim is one shard's lease object in the shared store's lease area.
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
	// Gen is the holder's progress token, bumped once per request the
	// shard simulates: it counts the shard's simulations. Challengers
	// detect staleness by watching (Epoch, Gen) stand still, so liveness
	// needs no clocks on the wire.
	Gen int `json:"gen"`
	// Done marks the shard fully simulated; done claims are never
	// seized.
	Done bool `json:"done"`
}

// claimJSON writes claims and decodes them; claimSize holds one, about
// 100 bytes plus the holder's name.
var claimJSON = wirejson.For[Claim]()

const claimSize = 256

// GridID fingerprints one expanded matrix for fleet coordination: the
// scenario name, the shard geometry, the simulator version and every
// request key in order (Matrix.Keys, the keys Expand interned the
// requests by). Hosts drain the same grid if and only if their IDs
// match, so a spec edit, a different -shard-cells, different overrides
// or a rebuilt simulator can never split one shard's identity across
// incompatible request sets.
func GridID(m *scenario.Matrix, shardCells int) string {
	h := sha256.New()
	fmt.Fprintf(h, "fleet-grid\x00%s\x00%d\x00%s\x00", m.Spec.Name, shardCells, sim.Version())
	for _, key := range m.Keys {
		io.WriteString(h, key)
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
// spec: a "leases" subdirectory of the same fs: directory, so the fleet
// needs no second shared mount — but one that no manifest walk ever
// reads (the manifest visits only the 256 two-hex shard directories),
// keeping the results store byte-identical to a single-host run. Every
// other spec is rejected: mem: creates a private map on each open, so
// a lease area there could never be shared.
func LeaseSpec(storeSpec string) (string, error) {
	dir, ok := strings.CutPrefix(storeSpec, "fs:")
	if !ok {
		return "", fmt.Errorf("fleet: store spec %q cannot host a shared lease area (want fs:DIR)", storeSpec)
	}
	if dir == "" {
		return "", fmt.Errorf("fleet: store spec %q has no directory", storeSpec)
	}
	return "fs:" + strings.TrimRight(dir, "/") + "/leases", nil
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
	// Default DefaultShardCells.
	ShardCells int
	// Cells restricts draining to a cell range. Lo must be
	// shard-aligned and Hi shard-aligned or the matrix total, so a
	// shard can never span the range boundary. The zero Range means the
	// whole matrix.
	Cells Range
	// StalePolls is the number of consecutive no-progress observations
	// of a held claim before this host seizes it. Default
	// DefaultStalePolls.
	StalePolls int
	// Sleep paces the poll loop when every remaining shard is held by a
	// live peer. Default: SleepFor(DefaultPoll); tests inject something
	// faster. Returning an error aborts the drain.
	Sleep func(ctx context.Context) error
}

// The defaults of a Config's zero fields. With them a host seizes a
// peer's shard once the peer's claim has stood still for a minute.
const (
	DefaultShardCells = 64
	DefaultStalePolls = 30
	DefaultPoll       = 2 * time.Second
)

// SleepFor returns a Config.Sleep that waits d of wall-clock time, or
// until ctx ends.
func SleepFor(d time.Duration) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-t.C:
			return nil
		}
	}
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

	// claims maps shard index -> the name of its claim object
	// (claimName), derived once per drain.
	claims map[int]string

	// observed tracks each contested claim's last-seen progress and how
	// many consecutive polls it has stood still.
	observed map[int]claimState

	sum Summary
}

// claimState is a challenger's view of a held claim.
type claimState struct {
	epoch, gen int
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
		cfg.ShardCells = DefaultShardCells
	}
	if cfg.ShardCells < 1 {
		return nil, fmt.Errorf("fleet: shard size %d must be positive", cfg.ShardCells)
	}
	if cfg.StalePolls == 0 {
		cfg.StalePolls = DefaultStalePolls
	}
	if cfg.Sleep == nil {
		cfg.Sleep = SleepFor(DefaultPoll)
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
		grid:     GridID(m, cfg.ShardCells),
		claims:   make(map[int]string),
		observed: make(map[int]claimState),
	}
	d.sum = Summary{
		Schema:     SummarySchema,
		Grid:       d.grid,
		Scenario:   m.Spec.Name,
		Host:       cfg.Host,
		Cells:      r.Hi - r.Lo,
		ShardCells: cfg.ShardCells,
	}

	var pending []int
	for s := r.Lo / cfg.ShardCells; s*cfg.ShardCells < r.Hi; s++ {
		pending = append(pending, s)
		d.claims[s] = claimName(d.grid, s)
	}
	d.sum.Shards = len(pending)
	d.sum.Requests = len(d.requests(r.Lo, r.Hi))

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
		st, seen := d.observed[s]
		if seen && st.epoch == cl.Epoch && st.gen == cl.Gen {
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
// this host holds. Every simulated request bumps the claim's generation
// after re-checking ownership; losing the lease mid-shard cancels the
// remaining requests and leaves the shard pending. A holder that lost
// the lease while serving hits learns it at its next simulation or at
// the done mark's re-read. Stream serializes sink calls, so the sink
// needs no lock.
func (d *drainer) drainShard(ctx context.Context, s int, cl Claim) (bool, error) {
	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var lost bool
	var sinkErr error
	sink := func(ev sim.Event) {
		if ev.Err != nil || lost || sinkErr != nil {
			return
		}
		d.count(ev)
		if ev.Source != sim.SourceSimulated {
			return
		}
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
	_, err := d.runner.Stream(shardCtx, d.requests(s*d.cfg.ShardCells, (s+1)*d.cfg.ShardCells), sink)
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

// requests returns the requests the cells [lo, hi) own: those they use
// first. FirstUse is nondecreasing, so they are one run of m.Requests,
// and the runs of disjoint cell ranges are disjoint.
func (d *drainer) requests(lo, hi int) []sim.Request {
	i, _ := slices.BinarySearch(d.m.FirstUse, lo)
	j, _ := slices.BinarySearch(d.m.FirstUse, hi)
	return d.m.Requests[i:j]
}

// count folds one completion event into the summary counters.
func (d *drainer) count(ev sim.Event) {
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

// read fetches and decodes shard s's claim. A missing object reads as
// unheld. An object that does not decode, or one of a foreign schema or
// grid, reads as the zero claim, held: a holder that never progresses,
// so visit seizes it after StalePolls polls. (Read as unheld, it would
// win every PutIfAbsent race and stall the drain.)
func (d *drainer) read(ctx context.Context, s int) (Claim, bool, error) {
	data, err := d.leases.Get(ctx, d.claims[s])
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Claim{}, false, nil
		}
		return Claim{}, false, fmt.Errorf("fleet: reading shard %d claim: %w", s, err)
	}
	var cl Claim
	if err := claimJSON.Unmarshal(data, &cl); err != nil || cl.Schema != ClaimSchema || cl.Grid != d.grid {
		return Claim{}, true, nil
	}
	return cl, true, nil
}

// write stores shard s's claim, via PutIfAbsent when ifAbsent (the
// initial race) and Put otherwise (progress bumps, takeovers, done
// marks).
func (d *drainer) write(ctx context.Context, s int, cl Claim, ifAbsent bool) (bool, error) {
	data, err := claimJSON.Append(make([]byte, 0, claimSize), &cl)
	if err != nil {
		return false, err
	}
	name := d.claims[s]
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
