// Command perfbench is the repository's layered performance benchmark.
// It drives the whole stack in one process, through the same public
// constructors the commands use, on one of three workloads:
//
//	grid-cold   one host drains the committed grid spec from an empty fs:
//	            store through fleet.Drain, then computes Store.Manifest
//	grid-warm   the same grid at short run lengths: setup fills the store,
//	            the timed region re-drains it pass after pass, every
//	            request a store hit
//	serve-warm  an in-process dispatch.Service over the filled store on a
//	            loopback listener, driven by a closed loop of callers
//
// Every delivered result is checked: grid-warm and serve-warm compare
// each one with the stored reference, and every workload digests its
// results against a committed golden on the default seed. The untraced
// run (-trace 0) prints the end-to-end metrics; the traced run (-trace 1)
// wraps each layer's public entry points and prints the per-layer
// metrics, the span self times and the tracing overhead. README.md
// documents the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"repro/internal/sim"
)

// defaultSeed is the pinned workload seed the goldens were recorded on.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func measured(value float64, unit string) metric { return metric{Value: value, Unit: unit} }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	seed := fl.Uint64("seed", defaultSeed, "workload seed: appended as seed=N to every gen: name of the grid spec")
	seconds := fl.Int("seconds", 20, "timed work, in seconds of the reference host (the amount of work is fixed by this value, not by the clock)")
	traceMode := fl.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	work := fl.String("work", ".bench_build/perfbench", "scratch directory for stores, lease areas and the spans file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), " | "))
		return 2
	}

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		spec:    gridSpec,
		gold:    gold,
		seed:    *seed,
		seconds: *seconds,
		nproc:   runtime.GOMAXPROCS(0),
		dir:     dir,
		log:     stdout,
	}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d%s, seconds %d, trace %d\n",
		w.name, b.seed, map[bool]string{true: " (default)", false: ""}[b.seed == defaultSeed], b.seconds, *traceMode)
	fmt.Fprintf(stdout, "env: num_cpu %d, GOMAXPROCS %d, %s, commit %s, sim version %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sim.Version())
	fmt.Fprintf(stdout, "loadavg at start: %s\n", loadavg())

	var line resultLine
	if *traceMode == 0 {
		line, err = b.untraced(w)
	} else {
		spans := filepath.Join(*work, "spans-"+w.name+".jsonl")
		line, err = b.traced(w, spans)
	}
	fmt.Fprintf(stdout, "loadavg at end: %s\n", loadavg())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// maxRSSMB is the process's peak resident set so far, from getrusage.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// loadavg returns /proc/loadavg, the host contention the run saw.
func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(data))
}

// commit names the source revision: the VCS stamp go build records,
// else the checkout's .git/HEAD, else "unknown" (a plain source tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	rev, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(rev))
}
