package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// TestEndToEnd builds every command and drives the real binaries
// through the paths only a multi-process run exercises: a sweep
// executing on a service through -backend, two drain processes racing
// on one fs: lease area, and a drain host killed mid-lease whose shard
// another host finishes. It also pins each command's flag set.
// Properties the in-process tests already pin are left to them.
func TestEndToEnd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to build the commands: %v", err)
	}
	bin := t.TempDir()
	args := []string{"build", "-buildvcs=false", "-o", bin + string(filepath.Separator)}
	for cmd := range commandFlags {
		args = append(args, "repro/cmd/"+cmd)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	regshared := filepath.Join(bin, "regshared")
	sweep := filepath.Join(bin, "sweep")

	t.Run("backend", func(t *testing.T) {
		url := "http://" + serve(t, "serving on ", regshared, "-addr", "127.0.0.1:0")
		args := []string{"-scenario", "ddt", "-bench", "crafty", "-warmup", "200", "-measure", "1500", "-json"}
		local := run(t, sweep, args...)

		cmd := exec.Command(sweep, append(args, "-backend", url, "-v")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		remote, err := cmd.Output()
		if err != nil {
			t.Fatalf("sweep -backend %s: %v\n%s", url, err, stderr.Bytes())
		}
		if string(remote) != local {
			t.Errorf("sweep -backend %s printed a different report:\n%s\nin-process:\n%s", url, remote, local)
		}
		// The -v summary: "N requests: S simulated, ...". Every request
		// the client's runner simulated is one /v1/run on the service.
		simulated := -1
		for _, line := range strings.Split(stderr.String(), "\n") {
			var n int
			if _, err := fmt.Sscanf(line, "%d requests: %d simulated", &n, &simulated); err == nil {
				break
			}
		}
		h := dispatch.NewHTTP(url)
		defer h.Close()
		snap, err := h.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if simulated <= 0 || snap.Completed != uint64(simulated) {
			t.Errorf("the service completed %d requests, the sweep simulated %d; want equal and non-zero\n%s",
				snap.Completed, simulated, stderr.Bytes())
		}
	})

	t.Run("fleet", func(t *testing.T) {
		drain := func(store, host string) []string {
			return []string{"-store", store, "-drain", "fleet-grid", "-host", host,
				"-cells", "0:200", "-shard-cells", "50", "-poll", "200ms", "-warmup", "200", "-measure", "1500"}
		}
		controlStore, shared := "fs:"+t.TempDir(), "fs:"+t.TempDir()
		control := drainSummary(t, run(t, regshared, drain(controlStore, "control")...))
		if control.Simulated == 0 {
			t.Fatalf("control drain simulated nothing: %+v", control)
		}

		// Two OS processes race on one fs: lease area.
		var (
			wg   sync.WaitGroup
			outs [2]string
			errs [2]error
		)
		for i, host := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errs[i] = output(regshared, drain(shared, host)...)
			}()
		}
		wg.Wait()
		var sims, takeovers int
		for i := range outs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			s := drainSummary(t, outs[i])
			sims += s.Simulated
			takeovers += s.TakenOver
		}
		if sims != control.Simulated || takeovers != 0 {
			t.Errorf("two hosts simulated %d with %d takeovers; the control simulated %d", sims, takeovers, control.Simulated)
		}
		rootC, _ := printedManifest(t, run(t, regshared, "-store", controlStore, "-manifest"))
		rootS, _ := printedManifest(t, run(t, regshared, "-store", shared, "-manifest"))
		if rootC != rootS {
			t.Errorf("shared store root %s, control root %s", rootS, rootC)
		}
		if again := drainSummary(t, run(t, regshared, drain(shared, "c")...)); again.Simulated != 0 {
			t.Errorf("re-drain simulated %d requests, want 0", again.Simulated)
		}

		// A host killed mid-lease. One shard spans the whole range, so
		// the kill lands before its claim is done. The next host seizes
		// the stale claim, takes every result the dead host stored from
		// the store, and simulates none of them again.
		dir := t.TempDir()
		chaos := func(host string) []string {
			return []string{"-store", "fs:" + dir, "-drain", "fleet-grid", "-host", host, "-cells", "0:200",
				"-shard-cells", "200", "-poll", "50ms", "-stale-polls", "2", "-warmup", "200", "-measure", "1500"}
		}
		stored := killWhenStored(t, sim.NewStore(dir), regshared, chaos("killed")...)
		finish := drainSummary(t, run(t, regshared, chaos("finisher")...))
		if finish.TakenOver != 1 || finish.StoreHits != stored ||
			finish.Simulated+finish.MemHits+finish.StoreHits != finish.Requests {
			t.Errorf("after a kill that left %d stored results, the finishing host reported %+v; want 1 takeover, %d store hits and every request accounted for",
				stored, finish, stored)
		}
		if root, _ := printedManifest(t, run(t, regshared, "-store", "fs:"+dir, "-manifest")); root != rootC {
			t.Errorf("store root after the kill and takeover %s, control root %s", root, rootC)
		}
	})

	t.Run("paperfigs", func(t *testing.T) {
		// -exp names one figure exactly: fig6 is not a prefix match for
		// fig6a, fig6b or fig6c, and fails before any simulation.
		cmd := exec.Command(filepath.Join(bin, "paperfigs"), "-exp", "fig6")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "unknown experiment") {
			t.Errorf("paperfigs -exp fig6: %v, stdout %q, stderr %q; want exit status 1 and an unknown experiment error",
				err, out, stderr.Bytes())
		}
	})

	t.Run("flags", func(t *testing.T) {
		for _, cmd := range slices.Sorted(maps.Keys(commandFlags)) {
			if got, want := flagNames(t, filepath.Join(bin, cmd)), commandFlags[cmd]; !slices.Equal(got, want) {
				t.Errorf("%s -h lists flags %v, want %v", cmd, got, want)
			}
		}
	})
}

// commandFlags is every command's flag set, sorted by name. A flag
// added or removed anywhere shows up as a change to this table.
var commandFlags = map[string][]string{
	"bench":       {"baseline", "label", "list", "o", "quick"},
	"paperfigs":   {"backend", "exp", "measure", "simver", "store", "warmup"},
	"regshared":   {"addr", "cells", "drain", "host", "manifest", "max-inflight", "max-queue", "measure", "poll", "recent", "shard-cells", "simver", "stale-polls", "store", "warmup", "workers"},
	"regsim":      {"bench", "committed", "ctrbits", "ddt", "entries", "json", "list", "loadload", "me", "measure", "pred", "simver", "smb", "store", "trace", "tracker", "v", "warmup"},
	"storagecost": {"bench", "frontier", "measure", "simver", "store", "warmup"},
	"sweep":       {"backend", "bench", "json", "list", "measure", "scenario", "simver", "store", "v", "warmup"},
}

// flagNames runs a command with -h, which must exit 0 with its usage on
// stderr, and returns the flag names the usage lists, sorted.
func flagNames(t *testing.T, path string) []string {
	t.Helper()
	cmd := exec.Command(path, "-h")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if out, err := cmd.Output(); err != nil || len(out) != 0 {
		t.Fatalf("%s -h: %v, stdout %q\n%s", filepath.Base(path), err, out, stderr.Bytes())
	}
	var names []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		// flag.PrintDefaults starts each flag's entry with "  -name";
		// usage text continues on lines indented with a tab.
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	slices.Sort(names)
	return names
}

// output runs a command to completion and returns its stdout. A
// non-zero exit comes back as an error that carries stderr.
func output(path string, args ...string) (string, error) {
	cmd := exec.Command(path, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), fmt.Errorf("%s %s: %w\n%s", filepath.Base(path), strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

// run is output for a command that must succeed.
func run(t *testing.T, path string, args ...string) string {
	t.Helper()
	out, err := output(path, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// killWhenStored starts a command that writes results into store,
// SIGKILLs it as soon as the store holds one entry, and returns how
// many entries the store holds once the process is gone. It fails the
// test unless the process died from the kill.
func killWhenStored(t *testing.T, store *sim.Store, path string, args ...string) int {
	t.Helper()
	cmd := exec.Command(path, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	timeout := time.After(time.Minute)
	for store.Len() == 0 {
		select {
		case err := <-exited:
			t.Fatalf("%s exited before it stored a result: %v\n%s", filepath.Base(path), err, stderr.Bytes())
		case <-timeout:
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("%s stored no result within a minute\n%s", filepath.Base(path), stderr.Bytes())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		<-exited
		t.Fatalf("killing %s: %v\n%s", filepath.Base(path), err, stderr.Bytes())
	}
	var exit *exec.ExitError
	if err := <-exited; !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("%s did not die from the kill: %v\n%s", filepath.Base(path), err, stderr.Bytes())
	}
	return store.Len()
}

// serve starts a long-lived server and returns the host:port it prints
// after marker once it is listening. The server is killed when the
// test ends, pass or fail.
func serve(t *testing.T, marker, path string, args ...string) string {
	t.Helper()
	w := &addrWriter{marker: marker, addr: make(chan string, 1)}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = w, w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(done)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails only when the process already exited
		<-done
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(path), w.String())
		}
	})
	select {
	case addr := <-w.addr:
		return strings.TrimPrefix(addr, "http://")
	case <-done:
		t.Fatalf("%s exited before listening: %v", filepath.Base(path), waitErr)
	case <-time.After(time.Minute):
		t.Fatalf("%s printed no %q line within a minute", filepath.Base(path), marker)
	}
	return ""
}

// addrWriter collects a server's output and sends the word after
// marker, from the first complete line that carries it, on addr.
type addrWriter struct {
	marker string
	addr   chan string

	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.found {
		return len(p), nil
	}
	lines := strings.Split(w.buf.String(), "\n")
	for _, line := range lines[:len(lines)-1] {
		if _, rest, ok := strings.Cut(line, w.marker); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				w.found = true
				w.addr <- fields[0]
				break
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// printedManifest reads the root and entry count from the summary
// regshared -manifest prints.
func printedManifest(t *testing.T, out string) (root string, entries int) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		key, val, _ := strings.Cut(line, ":")
		switch val = strings.TrimSpace(val); key {
		case "root":
			root = val
		case "entries":
			entries, _ = strconv.Atoi(val)
		}
	}
	if root == "" {
		t.Fatalf("no root in the -manifest output:\n%s", out)
	}
	return root, entries
}

// drainSummary decodes the summary regshared -drain prints.
func drainSummary(t *testing.T, out string) fleet.Summary {
	t.Helper()
	var s fleet.Summary
	if err := json.Unmarshal([]byte(out), &s); err != nil || s.Schema != fleet.SummarySchema {
		t.Fatalf("drain summary (%v):\n%s", err, out)
	}
	return s
}
