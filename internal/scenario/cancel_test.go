package scenario

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestCancelMidGridLeavesStoreConsistent is the cancellation acceptance
// check at scenario scale: cancel a 100+-cell grid a few completions in;
// the run must stop with a typed error, the sharded store must hold only
// complete entries, and a fresh-context re-run over the same store must
// be bit-identical to an uninterrupted control run.
func TestCancelMidGridLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	s := bigGrid()
	m := s.MustExpand(Overrides{})
	if len(m.Cells) < 100 {
		t.Fatalf("grid has %d cells, want >= 100", len(m.Cells))
	}

	// Cancel from inside the progress sink after a handful of cells
	// complete — the deterministic stand-in for ^C mid-sweep.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	completed := 0
	r1 := sim.New(sim.WithStore(sim.NewStore(dir)))
	_, err := m.Run(ctx, r1, func(ev sim.Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Err == nil {
			completed++
		}
		if completed == 5 {
			cancel()
		}
	})
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled wrapping context.Canceled", err)
	}
	if completed >= len(m.Requests) {
		t.Fatalf("all %d requests completed before the cancel took effect", completed)
	}

	// Every store entry must be a complete, loadable result — no
	// partials from the aborted simulations.
	store := sim.NewStore(dir)
	if n := store.Len(); n == 0 {
		t.Fatal("no completed cells reached the store before the cancel")
	}
	for _, req := range m.Requests {
		if res, ok := store.Load(context.Background(), sim.Key(req)); ok && (res == nil || res.S.Cycles == 0) {
			t.Fatalf("store holds a partial entry for %s", req.Bench)
		}
	}

	// Resume with a fresh context on the same store: the completed
	// prefix is served from disk, the rest simulates, and the report is
	// bit-identical to an uninterrupted control run.
	r2 := sim.New(sim.WithStore(sim.NewStore(dir)))
	resumed, err := s.MustExpand(Overrides{}).Run(context.Background(), r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.DiskHits == 0 {
		t.Fatalf("resume did not reuse the canceled run's completed cells: %+v", c)
	}

	control, err := s.MustExpand(Overrides{}).Run(context.Background(), sim.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Cells) != len(control.Cells) {
		t.Fatalf("resumed run has %d cells, control %d", len(resumed.Cells), len(control.Cells))
	}
	for i := range control.Cells {
		rc, cc := resumed.Cells[i], control.Cells[i]
		if rc.Series.GMean != cc.Series.GMean {
			t.Fatalf("cell %s gmean differs after resume: %v vs %v", cc.Name, rc.Series.GMean, cc.Series.GMean)
		}
		for b, v := range cc.Series.Per {
			if rc.Series.Per[b] != v {
				t.Fatalf("cell %s benchmark %s differs after resume: %v vs %v", cc.Name, b, rc.Series.Per[b], v)
			}
		}
	}
}
