package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestEndToEnd builds every command and drives the real binaries
// through the paths only a multi-process run exercises: a service under
// loadgen, two drain processes racing on one fs: lease area, and the s3
// store against the fake. It also pins each command's flag set.
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
	loadgen := filepath.Join(bin, "loadgen")
	fakes3 := filepath.Join(bin, "fakes3")

	// The s3 subtest's processes sign with these; the fake checks them.
	t.Setenv("AWS_ACCESS_KEY_ID", "e2e")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "e2e-secret")
	t.Setenv("AWS_REGION", "us-east-1")

	t.Run("service", func(t *testing.T) {
		url := "http://" + serve(t, "serving on ", regshared, "-addr", "127.0.0.1:0",
			"-store", "fs:"+t.TempDir(), "-max-inflight", "4", "-max-queue", "16")
		run(t, loadgen, "-url", url, "-points", "2,4", "-duration", "1s", "-check")
		// A point that completes no request checks nothing, even when
		// the service already served others.
		if out, err := output(loadgen, "-url", url, "-points", "2", "-duration", "1ns", "-check"); err == nil {
			t.Errorf("loadgen -check passed a point with zero ok requests:\n%s", out)
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
	})

	t.Run("s3", func(t *testing.T) {
		endpoint := "http://" + serve(t, "listening on ", fakes3, "-addr", "127.0.0.1:0", "-bucket", "simstore",
			"-access-key", os.Getenv("AWS_ACCESS_KEY_ID"), "-secret-key", os.Getenv("AWS_SECRET_ACCESS_KEY"),
			"-region", os.Getenv("AWS_REGION"))
		run(t, sweep, "-scenario", "ddt", "-bench", "crafty", "-warmup", "200", "-measure", "1500",
			"-store", "s3://simstore/grid", "-s3-endpoint", endpoint)
		if _, entries := printedManifest(t, run(t, regshared, "-store", "s3://simstore/grid", "-s3-endpoint", endpoint, "-manifest")); entries == 0 {
			t.Error("the bucket's manifest lists no entries after the sweep")
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
	"bench":       {"baseline", "gate", "label", "list", "o", "quick"},
	"fakes3":      {"access-key", "addr", "bucket", "region", "secret-key"},
	"loadgen":     {"bench", "check", "duration", "grid", "measure", "points", "url", "warmup"},
	"paperfigs":   {"backend", "exp", "measure", "s3-endpoint", "simver", "store", "warmup"},
	"regshared":   {"addr", "cells", "drain", "host", "manifest", "max-inflight", "max-queue", "measure", "poll", "recent", "s3-endpoint", "shard-cells", "simver", "stale-polls", "store", "warmup", "workers"},
	"regsim":      {"bench", "committed", "ctrbits", "ddt", "entries", "json", "list", "loadload", "me", "measure", "pred", "s3-endpoint", "simver", "smb", "store", "trace", "tracker", "v", "warmup"},
	"storagecost": {"bench", "frontier", "measure", "s3-endpoint", "simver", "store", "warmup"},
	"sweep":       {"backend", "bench", "json", "kind", "list", "measure", "s3-endpoint", "scenario", "simver", "spec", "store", "v", "warmup"},
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
