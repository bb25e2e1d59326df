package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/fleet"
	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// drainConfig carries the -drain flag values into runDrain.
type drainConfig struct {
	scenario   string
	host       string
	shardCells int
	cells      string
	stalePolls int
	poll       time.Duration
	// warmup and measure point at the -warmup/-measure flag values;
	// scenario.CommandOverrides only applies the ones actually set.
	warmup, measure *uint64
}

// runDrain is the fleet one-shot: expand the scenario, lease-shard its
// cells over the shared bucket's lease area, drain this host's share
// through the ordinary runner, and print the drain summary JSON.
func runDrain(runner *sim.Runner, store *sim.Store, rf *cliflags.Flags, dc drainConfig) error {
	if store == nil {
		return fmt.Errorf("regshared: -drain needs a shared -store (fs:DIR or s3://bucket/prefix)")
	}
	spec, err := scenario.Resolve(dc.scenario)
	if err != nil {
		return err
	}
	matrix, err := spec.Expand(scenario.CommandOverrides(dc.warmup, dc.measure, ""))
	if err != nil {
		return err
	}

	leaseSpec, err := fleet.LeaseSpec(rf.StoreSpec())
	if err != nil {
		return err
	}
	leases, err := objstore.New(leaseSpec, rf.StoreOptions()...)
	if err != nil {
		return err
	}
	defer leases.Close()

	cfg := fleet.Config{
		Host:       dc.host,
		ShardCells: dc.shardCells,
		StalePolls: dc.stalePolls,
		Sleep: func(ctx context.Context) error {
			t := time.NewTimer(dc.poll)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-t.C:
				return nil
			}
		},
	}
	if cfg.Host == "" {
		hostname, err := os.Hostname()
		if err != nil || hostname == "" {
			hostname = "host"
		}
		cfg.Host = fmt.Sprintf("%s.%d", hostname, os.Getpid())
	}
	if dc.cells != "" {
		cfg.Cells, err = parseCellRange(dc.cells)
		if err != nil {
			return err
		}
	}

	log.Printf("regshared: draining %s (%d cells, %d unique requests) as host %s, %d cells/shard, leases %s",
		spec.Name, len(matrix.Cells), len(matrix.Requests), cfg.Host, cfg.ShardCells, leaseSpec)
	sum, err := fleet.Drain(sim.SignalContext(), matrix, runner, leases, cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// parseCellRange parses the -cells LO:HI argument.
func parseCellRange(s string) (fleet.Range, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if ok {
		l, errL := strconv.Atoi(lo)
		h, errH := strconv.Atoi(hi)
		if errL == nil && errH == nil {
			return fleet.Range{Lo: l, Hi: h}, nil
		}
	}
	return fleet.Range{}, fmt.Errorf("regshared: -cells %q: want LO:HI (cell indices)", s)
}
