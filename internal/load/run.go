package load

// The load driver proper: N concurrent clients generate operations from
// per-client deterministic streams and execute them against a Target for a
// fixed duration.
//
// Closed loop ("closed"): each client issues operations back-to-back, so
// offered load adapts to service rate — the classic saturation benchmark.
// Latency is measured from the call to its return.
//
// Open loop ("open"): operations are due on a fixed schedule (Rate per
// second total, divided evenly across clients, each client phase-shifted to
// de-synchronize arrivals), modeling independent users who do not slow down
// because the server is slow.  Latency is measured from each operation's
// INTENDED start time, not its actual one, so time an operation spends
// queued behind a stalled predecessor counts against it — the standard
// coordinated-omission correction.  Without it, a one-second server stall
// under a 1 kHz schedule would record one bad sample instead of a thousand,
// and p99 would lie by orders of magnitude.
//
// When the schedule outpaces the target, issuing stops at the deadline
// rather than draining the backlog, so a saturated open-loop run still ends
// on time.  Arrivals still queued at the deadline record no sample, which
// slightly understates the tail of a badly overloaded run — the completed
// samples already carry the corrected queueing delay, so saturation remains
// plainly visible.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Target executes one operation.  Implementations must be safe for
// concurrent use by many clients.
type Target interface {
	Do(ctx context.Context, op Op) error
}

// Config configures one load run.
type Config struct {
	Workload *Workload
	Target   Target
	// Clients is the number of concurrent clients (default 1).
	Clients int
	// Duration is how long to generate load; operations in flight at the
	// deadline are allowed to finish.
	Duration time.Duration
	// Rate, when positive, selects open-loop mode with that many intended
	// operations per second across all clients.  Zero selects closed loop.
	Rate float64
	// Seed derives every client's RNG; same (Seed, Clients) ⇒ identical
	// per-client operation streams.
	Seed int64
	// OnProgress, when non-nil, is called about once per second from a
	// single goroutine with the running totals.
	OnProgress func(Progress)
}

// Progress is a point-in-time snapshot of a running load.
type Progress struct {
	Elapsed time.Duration
	Ops     int64
	Errors  int64
}

// Result is the outcome of one load run.
type Result struct {
	Mode    string // "closed" or "open"
	Clients int
	Seed    int64
	// TargetRPS is the configured open-loop arrival rate (0 for closed).
	TargetRPS float64
	// AchievedRPS is successful operations per wall-clock second.
	AchievedRPS float64
	// Ops counts successful operations (the histogram's samples); Errors
	// counts failed ones, which record no latency.
	Ops    int64
	Errors int64
	// FirstErr is the first operation failure of the run (nil when Errors
	// is 0): the cause to show next to the count.
	FirstErr error
	Elapsed  time.Duration
	Hist     *Hist
}

// tally is the running totals the clients of one run share.
type tally struct {
	ops, errs atomic.Int64
	firstErr  atomic.Pointer[error]
}

// fail counts one failed operation, keeping the first failure's error.
func (t *tally) fail(err error) {
	t.errs.Add(1)
	t.firstErr.CompareAndSwap(nil, &err)
}

// Run drives the configured load and returns its merged result.  It
// returns an error only for configuration-level failures (a stream
// evaluation error, an invalid config); operation failures are counted in
// Result.Errors, the first of them kept in Result.FirstErr.  Cancelling ctx
// stops the run early; the partial result is still returned with an error
// of ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Workload == nil || cfg.Target == nil {
		return nil, errors.New("load: Config needs a Workload and a Target")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("load: Config.Duration must be positive")
	}
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	mode := "closed"
	var interval time.Duration
	if cfg.Rate > 0 {
		mode = "open"
		interval = time.Duration(float64(clients) / cfg.Rate * float64(time.Second))
		if interval <= 0 {
			return nil, fmt.Errorf("load: rate %g too high for %d clients", cfg.Rate, clients)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		tot       tally
		wg        sync.WaitGroup
		hists     = make([]*Hist, clients)
		streamErr = make([]error, clients)
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for c := 0; c < clients; c++ {
		hists[c] = NewHist()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := hists[c]
			stream := cfg.Workload.Client(c, cfg.Seed)
			if mode == "closed" {
				streamErr[c] = runClosed(ctx, cfg.Target, stream, h, deadline, &tot)
			} else {
				phase := interval * time.Duration(c) / time.Duration(clients)
				streamErr[c] = runOpen(ctx, cfg.Target, stream, h, start.Add(phase), interval, deadline, &tot)
			}
		}(c)
	}

	progressDone := make(chan struct{})
	if cfg.OnProgress != nil {
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-t.C:
					cfg.OnProgress(Progress{Elapsed: time.Since(start), Ops: tot.ops.Load(), Errors: tot.errs.Load()})
				}
			}
		}()
	}
	wg.Wait()
	close(progressDone)

	res := &Result{
		Mode:      mode,
		Clients:   clients,
		Seed:      cfg.Seed,
		TargetRPS: cfg.Rate,
		Ops:       tot.ops.Load(),
		Errors:    tot.errs.Load(),
		Elapsed:   time.Since(start),
		Hist:      NewHist(),
	}
	if e := tot.firstErr.Load(); e != nil {
		res.FirstErr = *e
	}
	for _, h := range hists {
		res.Hist.Merge(h)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.AchievedRPS = float64(res.Ops) / s
	}
	for _, err := range streamErr {
		if err != nil {
			return res, err
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runClosed issues operations back-to-back until the deadline.
func runClosed(ctx context.Context, tgt Target, s *Stream, h *Hist, deadline time.Time, tot *tally) error {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		op, err := s.Next()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := tgt.Do(ctx, op); err != nil {
			if ctx.Err() != nil {
				return nil // run cancelled mid-operation, not an op failure
			}
			tot.fail(err)
			continue
		}
		h.Record(time.Since(t0).Nanoseconds())
		tot.ops.Add(1)
	}
	return nil
}

// runOpen issues operations on the fixed schedule first, first+interval,
// ..., measuring each latency from its scheduled start.  Issuing stops at
// the deadline even when scheduled arrivals remain unserved, so the run's
// wall clock stays bounded by Duration under overload.
func runOpen(ctx context.Context, tgt Target, s *Stream, h *Hist, next time.Time, interval time.Duration, deadline time.Time, tot *tally) error {
	for ctx.Err() == nil && next.Before(deadline) && time.Now().Before(deadline) {
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(d):
			}
		}
		op, err := s.Next()
		if err != nil {
			return err
		}
		if err := tgt.Do(ctx, op); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			tot.fail(err)
		} else {
			// Coordinated-omission correction: latency from the intended
			// start, so schedule slippage (this op queued behind slow
			// predecessors) is charged to the operation.
			h.Record(time.Since(next).Nanoseconds())
			tot.ops.Add(1)
		}
		next = next.Add(interval)
	}
	return nil
}
