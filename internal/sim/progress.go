package sim

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// SignalContext returns a context canceled by SIGINT or SIGTERM — the
// root context every command hands to the runner, so ^C aborts a grid
// mid-simulation instead of killing the process with caches half
// written. After the first signal cancels the context, signal handling
// is restored, so a second ^C force-kills a run that is somehow stuck.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

// Progress renders a live `done/total (hit/sim) cycles/sec` line from a
// Stream's completion events. Pass Observe as the sink; call Finish
// before printing the final report. The line is only drawn when w is a
// terminal — piped and CI output stays clean — but the counters are
// always maintained, so Summary works either way. Observe is already
// serialized by Stream's sink contract; Progress carries its own mutex
// anyway so several concurrent Streams may share one instance.
type Progress struct {
	w     io.Writer
	r     *Runner
	tty   bool
	start time.Time

	mu        sync.Mutex
	total     int
	done      int
	simCycles uint64
	live      bool
}

// NewProgress builds a progress line over total expected events,
// reading hit/sim counters from r.
func NewProgress(w io.Writer, r *Runner, total int) *Progress {
	p := &Progress{w: w, r: r, total: total, start: time.Now()} //repro:allow nodeterm -- progress display only; never reaches a result
	if f, ok := w.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			p.tty = true
		}
	}
	return p
}

// Observe consumes one completion event and redraws the line.
func (p *Progress) Observe(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if ev.Res != nil && ev.Source == SourceSimulated {
		p.simCycles += ev.Res.S.Cycles
	}
	if !p.tty {
		return
	}
	p.drawLocked()
}

// drawLocked renders the current counters over the live line. Callers
// hold p.mu.
func (p *Progress) drawLocked() {
	c := p.r.Counters()
	count := fmt.Sprintf("%d", p.done)
	if p.total > 0 {
		count = fmt.Sprintf("%d/%d", p.done, p.total)
	}
	fmt.Fprintf(p.w, "\r%s (%d hit, %d sim) %.0f cycles/sec   ",
		count, c.MemHits+c.DiskHits, c.Simulated, p.rate())
	p.live = true
}

// rate is the aggregate simulated-cycles-per-wall-second since the
// progress line started. Callers hold p.mu.
func (p *Progress) rate() float64 {
	secs := time.Since(p.start).Seconds() //repro:allow nodeterm -- progress display only; never reaches a result
	if secs <= 0 {
		return 0
	}
	return float64(p.simCycles) / secs
}

// Finish terminates the live line (if one was drawn) so subsequent
// output starts on a fresh line. It first redraws one final complete
// done/total line: the stream can end between refreshes (a batch whose
// last events settled after the final redraw), and without the flush
// the terminal would keep showing a stale partial count.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live {
		p.drawLocked()
		fmt.Fprintln(p.w)
		p.live = false
	}
}

// Summary returns the one-line cost accounting every command prints on
// stderr after a run.
func (p *Progress) Summary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.r.Counters()
	return fmt.Sprintf("%d requests: %d simulated, %d deduplicated, %d from the store (%.0f cycles/sec)",
		p.done, c.Simulated, c.MemHits, c.DiskHits, p.rate())
}
