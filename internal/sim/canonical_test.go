package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestCanonicalNameSharesEntry pins the canonicalization seam in the
// runner: every spelling of one generator point funnels into one
// singleflight slot, one result and one store envelope, keyed by the
// canonical name. The fleet protocol leans on this — two hosts spelling
// a cell differently must still converge on identical store bytes.
func TestCanonicalNameSharesEntry(t *testing.T) {
	spellings := []string{
		"gen:spill?depth=4&dist=16",          // canonical
		"gen:spill?dist=16&depth=4",          // unsorted keys
		"gen:spill?depth=4&dist=16&seed=0",   // explicit default
		"gen:spill?depth=4&dist=16&far=0.25", // another explicit default
	}
	spec, err := workloads.Resolve(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	canonical := spec.Name
	if canonical != spellings[0] {
		t.Fatalf("expected %q to be canonical, got %q", spellings[0], canonical)
	}

	store := NewStore(t.TempDir())
	r := New(WithStore(store))
	var first *Result
	for _, name := range spellings {
		res, err := r.Run(bg, quickReq(name))
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if res.Bench != canonical {
			t.Fatalf("%q: result carries bench %q, want the canonical %q", name, res.Bench, canonical)
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Fatalf("%q: got a distinct result value; spellings did not share the singleflight slot", name)
		}
	}
	c := r.Counters()
	if c.Simulated != 1 || c.MemHits != uint64(len(spellings)-1) {
		t.Fatalf("counters %+v: want 1 simulated, %d mem hits", c, len(spellings)-1)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1 (all spellings share the canonical envelope)", store.Len())
	}

	// A fresh runner over the same store must hit disk for every
	// spelling — the envelope is addressed by the canonical key.
	r2 := New(WithStore(store))
	for _, name := range spellings {
		if _, err := r2.Run(bg, quickReq(name)); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if c2 := r2.Counters(); c2.Simulated != 0 || c2.DiskHits != 1 || c2.MemHits != uint64(len(spellings)-1) {
		t.Fatalf("fresh-runner counters %+v: want 0 simulated, 1 disk hit, %d mem hits", c2, len(spellings)-1)
	}

	// One batch resolves each name once: every spelling, twice, still
	// gets the canonical result, and an unknown name fails each time.
	const unknown = "no-such-benchmark"
	var reqs []Request
	for _, name := range append(append(slices.Clone(spellings), spellings...), unknown, unknown) {
		reqs = append(reqs, quickReq(name))
	}
	_, err = New(WithStore(store)).Stream(bg, reqs, func(ev Event) {
		switch {
		case reqs[ev.Index].Bench == unknown:
			if !errors.Is(ev.Err, ErrUnknownBenchmark) || ev.Key != "" {
				t.Errorf("request %d: key %q, %v; want no key and ErrUnknownBenchmark", ev.Index, ev.Key, ev.Err)
			}
		case ev.Err != nil || !strings.HasPrefix(ev.Key, canonical+"-") || ev.Res.Bench != canonical || ev.Source == SourceSimulated:
			t.Errorf("request %d: key %q, %v from %v; want the stored %q", ev.Index, ev.Key, ev.Err, ev.Source, canonical)
		}
	})
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("batch err = %v, want ErrUnknownBenchmark", err)
	}
}
