package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"

	"repro/internal/sim"
)

// maxCrashRetries bounds how many times one request is re-run after its
// worker died. A request that deterministically kills every worker it
// lands on (a simulator bug) must surface as an error, not respawn
// processes forever.
const maxCrashRetries = 2

// PoolStats counts the pool's lifecycle events, for tests and -v
// diagnostics.
type PoolStats struct {
	Spawned int // worker processes started
	Crashes int // workers that died or broke protocol mid-request
	Retries int // requests re-run on another worker after a crash
}

// Pool executes requests on a fixed number of worker subprocesses —
// re-executions of the current binary (see MaybeWorker) speaking
// newline-delimited JSON frames over stdin/stdout. Workers are spawned
// lazily and serve one request at a time, so a simulator crash is
// isolated to its own process: the pool restarts the worker and retries
// the request elsewhere, and since only the parent writes the result
// stores, a crash can never leave a partial store entry behind.
type Pool struct {
	size  int
	exe   string
	slots chan struct{}

	mu     sync.Mutex
	idle   []*worker
	live   map[*worker]struct{}
	closed bool
	stats  PoolStats
}

// NewPool builds a pool of n workers (n < 1 is coerced to 1). The
// worker processes start lazily on first use.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	exe, err := os.Executable()
	if err != nil {
		// Spawning will fail with a clear error; remember the empty path.
		exe = ""
	}
	return &Pool{
		size:  n,
		exe:   exe,
		slots: make(chan struct{}, n),
		live:  make(map[*worker]struct{}),
	}
}

// Size returns the pool's worker count.
func (p *Pool) Size() int { return p.size }

// Stats returns a snapshot of the pool's lifecycle counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// PIDs returns the process IDs of the pool's running workers, idle and
// leased alike — diagnostics, and the handle the crash-recovery tests
// use to kill workers mid-request.
func (p *Pool) PIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := make([]int, 0, len(p.live))
	for w := range p.live {
		if w.cmd.Process != nil {
			pids = append(pids, w.cmd.Process.Pid)
		}
	}
	sort.Ints(pids)
	return pids
}

// Execute runs req on an idle worker, retrying on a fresh worker if the
// one serving it crashes. Typed simulation errors (bad config, unknown
// benchmark) come back in-band from the worker and are not retried;
// transport failures are treated as crashes. Cancellation kills the
// serving worker — there is no way to interrupt its cycle loop from
// here — and returns a sim.ErrCanceled wrap.
func (p *Pool) Execute(ctx context.Context, req sim.Request) (*sim.Result, error) {
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, canceledErr(req.Bench, ctxCause(ctx))
	}
	defer func() { <-p.slots }()

	var lastComm error
	for attempt := 0; ; attempt++ {
		w, err := p.lease()
		if err != nil {
			return nil, err
		}
		res, appErr, commErr := w.roundTrip(ctx, req)
		switch {
		case commErr == nil && appErr == nil:
			p.putIdle(w)
			return res, nil
		case appErr != nil:
			// The worker is healthy; the request itself failed.
			p.putIdle(w)
			return nil, appErr
		}
		// Transport broken: the worker is gone or talking garbage.
		p.retire(w)
		if ctx.Err() != nil {
			// Our cancellation killed the worker; that is not a crash.
			return nil, canceledErr(req.Bench, ctxCause(ctx))
		}
		lastComm = commErr
		p.mu.Lock()
		p.stats.Crashes++
		retry := attempt < maxCrashRetries
		if retry {
			p.stats.Retries++
		}
		p.mu.Unlock()
		if !retry {
			return nil, fmt.Errorf("dispatch: pool: %s failed after %d worker crashes: %w",
				req.Bench, attempt+1, lastComm)
		}
	}
}

// Close kills every worker and marks the pool closed. Call it only
// after all Execute calls have returned.
func (p *Pool) Close() error {
	p.mu.Lock()
	workers := make([]*worker, 0, len(p.live))
	//repro:allow nodeterm -- shutdown fan-out: every worker is killed, order is unobservable
	for w := range p.live {
		workers = append(workers, w)
	}
	p.idle = nil
	p.live = map[*worker]struct{}{}
	p.closed = true
	p.mu.Unlock()
	for _, w := range workers {
		w.shutdown()
	}
	return nil
}

// lease pops an idle worker or spawns one. The slots channel already
// bounds concurrent leases at the pool size, so spawning here can never
// exceed it.
func (p *Pool) lease() (*worker, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("dispatch: pool is closed")
	}
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	p.mu.Unlock()

	w, err := p.spawn()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		w.shutdown()
		return nil, errors.New("dispatch: pool is closed")
	}
	p.live[w] = struct{}{}
	p.stats.Spawned++
	p.mu.Unlock()
	return w, nil
}

// putIdle returns a healthy worker to the idle stack.
func (p *Pool) putIdle(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		go w.shutdown()
		return
	}
	p.idle = append(p.idle, w)
}

// retire kills a broken worker and forgets it.
func (p *Pool) retire(w *worker) {
	p.mu.Lock()
	delete(p.live, w)
	p.mu.Unlock()
	w.kill()
}

// spawn starts one worker subprocess: this binary, flagged as a worker
// through the environment (see MaybeWorker), with stderr passed
// through for diagnostics.
func (p *Pool) spawn() (*worker, error) {
	if p.exe == "" {
		return nil, errors.New("dispatch: pool: cannot locate own executable to spawn workers")
	}
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("dispatch: pool: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dispatch: pool: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dispatch: pool: spawning worker: %w", err)
	}
	return &worker{
		cmd:   cmd,
		stdin: stdin,
		enc:   json.NewEncoder(stdin),
		dec:   json.NewDecoder(stdout),
	}, nil
}

// worker is one subprocess: the frame codec plus the process handle.
// A worker serves one request at a time (the pool leases it
// exclusively), so the frame ID is a protocol check, not a multiplexer.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	dec    *json.Decoder
	nextID uint64
	waited sync.Once
}

// roundTrip sends req and waits for its response frame. The three
// returns separate the failure domains: appErr is an in-band typed
// error from a healthy worker (not retriable), commErr a broken
// transport (worker crashed — retriable). Cancellation kills the
// process to unblock the read and surfaces as commErr with ctx.Err()
// set; Execute checks the context to tell the two apart.
func (w *worker) roundTrip(ctx context.Context, req sim.Request) (res *sim.Result, appErr, commErr error) {
	w.nextID++
	if err := w.enc.Encode(workerRequest{ID: w.nextID, Req: req}); err != nil {
		return nil, nil, fmt.Errorf("sending frame: %w", err)
	}
	type outcome struct {
		resp workerResponse
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		var resp workerResponse
		err := w.dec.Decode(&resp)
		ch <- outcome{resp, err}
	}()
	select {
	case <-ctx.Done():
		w.kill() // unblocks the decode goroutine
		return nil, nil, ctx.Err()
	case o := <-ch:
		switch {
		case o.err != nil:
			return nil, nil, fmt.Errorf("reading frame: %w", o.err)
		case o.resp.ID != w.nextID:
			return nil, nil, fmt.Errorf("worker answered frame %d, want %d", o.resp.ID, w.nextID)
		case o.resp.Err != "":
			return nil, wireError(o.resp.Kind, o.resp.Err), nil
		case o.resp.Result == nil:
			return nil, nil, errors.New("worker frame carries neither result nor error")
		default:
			return o.resp.Result, nil, nil
		}
	}
}

// kill forcibly terminates the worker process and reaps it.
func (w *worker) kill() {
	w.stdin.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.waited.Do(func() { w.cmd.Wait() })
}

// shutdown closes the worker's stdin — the loop in ServeWorker exits
// cleanly on EOF — and reaps the process.
func (w *worker) shutdown() {
	w.stdin.Close()
	w.waited.Do(func() { w.cmd.Wait() })
}
