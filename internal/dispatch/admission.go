package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// ErrOverloaded marks a request the service refused at admission: the
// bounded queue in front of the runner was full. Over HTTP it surfaces
// as 429 with a Retry-After header; the client re-wraps it so callers
// can branch with errors.Is.
var ErrOverloaded = errors.New("dispatch: service overloaded")

// admission is the bounded request queue in front of the Service's
// runner: at most maxInflight requests execute, at most maxQueue wait,
// and everything past that is rejected with ErrOverloaded. Waiters are
// kept in per-client FIFOs and dequeued round-robin across clients, so
// one client dumping a 10k-cell sweep cannot starve another's
// single-cell request: the newcomer waits behind at most one request
// per other client, not behind the whole sweep.
type admission struct {
	maxInflight int
	maxQueue    int

	mu       sync.Mutex
	inflight int
	queued   int
	clients  []*clientQueue // clients with waiters, round-robin order
	index    map[string]*clientQueue
	rr       int // next clients index to grant from
}

// clientQueue is one client's FIFO of waiting requests.
type clientQueue struct {
	id      string
	waiters []chan struct{}
}

// defaultMaxInflight sizes admission when the operator does not: wide
// enough that the runner (which gates real simulation concurrency at
// its own worker count) stays fed, narrow enough that a flood queues
// instead of piling goroutines onto the runner's semaphore.
func defaultMaxInflight() int {
	return max(16, 4*runtime.GOMAXPROCS(0))
}

// newAdmission builds the gate. maxInflight < 1 selects the default;
// maxQueue < 0 is coerced to 0 (no waiting: beyond maxInflight, reject).
func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight < 1 {
		maxInflight = defaultMaxInflight()
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		index:       make(map[string]*clientQueue),
	}
}

// acquire blocks until the request may execute, fails fast with
// ErrOverloaded when the queue is full, or gives up when ctx is
// canceled (typed sim.ErrCanceled wrap). Every successful acquire must
// be paired with exactly one release.
func (a *admission) acquire(ctx context.Context, client string) error {
	a.mu.Lock()
	// Direct grant only when nobody is waiting: a newcomer barging past
	// queued requests would defeat the fairness the queue exists for.
	if a.inflight < a.maxInflight && a.queued == 0 {
		a.inflight++
		a.mu.Unlock()
		return nil
	}
	if a.queued >= a.maxQueue {
		queued, inflight := a.queued, a.inflight
		a.mu.Unlock()
		return fmt.Errorf("%w: admission queue full (%d queued, %d in flight)", ErrOverloaded, queued, inflight)
	}
	grant := make(chan struct{})
	q := a.index[client]
	if q == nil {
		q = &clientQueue{id: client}
		a.index[client] = q
		a.clients = append(a.clients, q)
	}
	q.waiters = append(q.waiters, grant)
	a.queued++
	a.mu.Unlock()

	select {
	case <-grant:
		return nil
	case <-ctx.Done():
		if a.removeWaiter(client, grant) {
			return fmt.Errorf("dispatch: admission wait: %w: %w", sim.ErrCanceled, ctxCause(ctx))
		}
		// The grant raced the cancellation and won: the slot is ours,
		// so hand it back before reporting the cancellation.
		a.release()
		return fmt.Errorf("dispatch: admission wait: %w: %w", sim.ErrCanceled, ctxCause(ctx))
	}
}

// release returns an execution slot: either directly to the next queued
// waiter — round-robin across clients — or back to the free pool.
func (a *admission) release() {
	a.mu.Lock()
	if a.queued > 0 {
		if a.rr >= len(a.clients) {
			a.rr = 0
		}
		q := a.clients[a.rr]
		grant := q.waiters[0]
		q.waiters = q.waiters[1:]
		a.queued--
		if len(q.waiters) == 0 {
			a.dropClientLocked(a.rr)
			// The slice shifted left, so rr already points past q.
		} else {
			a.rr++
		}
		a.mu.Unlock()
		// The slot transfers: inflight is unchanged.
		close(grant)
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// removeWaiter withdraws a canceled waiter. It reports false when the
// waiter is gone — i.e. its grant already fired.
func (a *admission) removeWaiter(client string, grant chan struct{}) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.index[client]
	if q == nil {
		return false
	}
	for i, w := range q.waiters {
		if w == grant {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			a.queued--
			if len(q.waiters) == 0 {
				for j, c := range a.clients {
					if c == q {
						a.dropClientLocked(j)
						break
					}
				}
			}
			return true
		}
	}
	return false
}

// dropClientLocked forgets the emptied client queue at clients[i] and
// keeps the round-robin cursor coherent. Callers hold a.mu.
func (a *admission) dropClientLocked(i int) {
	q := a.clients[i]
	a.clients = append(a.clients[:i], a.clients[i+1:]...)
	delete(a.index, q.id)
	if a.rr > i {
		a.rr--
	}
	if a.rr >= len(a.clients) {
		a.rr = 0
	}
}

// depth reports the requests holding an execution slot and those
// queued for one.
func (a *admission) depth() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, a.queued
}

// retryAfter estimates, in whole seconds, when a rejected client should
// retry: one drain round of the current queue through the in-flight
// window, clamped to [1, 60].
func (a *admission) retryAfter() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := 1 + a.queued/a.maxInflight
	if s > 60 {
		s = 60
	}
	return s
}
