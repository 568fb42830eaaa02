// Command ldlload is the operator's load driver: N concurrent clients replay
// a text workload script (workloads/*.ldlw) for a fixed duration, in
// closed-loop (back-to-back) or open-loop (fixed arrival rate,
// coordinated-omission-corrected latency) mode, against the in-process
// engine (a materialized view: lock-free snapshot reads, incremental write
// transactions) or an ldl1d server over HTTP, and reports latency
// percentiles and achieved throughput (DESIGN.md §14).
//
//	ldlload -load workloads/point_lookup.ldlw -duration 2s -clients 4
//	ldlload -load workloads/mixed.ldlw -mode open -rate 400 -server spawn
//	ldlload -load workloads/mixed.ldlw -duration 10m -server http://host:8370
//
// It exits nonzero when an operation failed, none completed, or the run was
// interrupted (Ctrl-C / SIGTERM still print the summary of what ran).  It is
// a tool for looking at a live system, not the repository's benchmark: that
// is bench/ (`sh bench/run.sh`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ldl1"
	"ldl1/client"
	"ldl1/internal/load"
	"ldl1/internal/server"
)

func main() {
	var f loadFlags
	flag.StringVar(&f.workload, "load", "", "workload script (*.ldlw) to run")
	flag.StringVar(&f.mode, "mode", "closed", "closed (back-to-back) or open (fixed-rate arrivals)")
	flag.IntVar(&f.clients, "clients", 8, "concurrent clients")
	flag.DurationVar(&f.duration, "duration", 10*time.Second, "run length")
	flag.Float64Var(&f.rate, "rate", 0, "with -mode open: total intended ops/sec across all clients")
	flag.Int64Var(&f.seed, "seed", 1, "run seed; same seed and -clients replays identical per-client streams")
	flag.StringVar(&f.server, "server", "", `target a server instead of the in-process engine — "spawn" boots an in-process ldl1d, anything else is a live ldl1d base URL`)
	flag.StringVar(&f.db, "db", "", "with -server: database name override (default: the workload's \\db)")
	flag.Parse()
	if f.workload == "" {
		fmt.Fprintln(os.Stderr, "usage: ldlload -load workload.ldlw [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runLoad(ctx, f)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldlload: %v\n", err)
		os.Exit(1)
	}
}

type loadFlags struct {
	workload string // path to the .ldlw script
	mode     string // closed or open
	clients  int
	duration time.Duration
	rate     float64 // total ops/sec, open loop only
	seed     int64
	server   string // "" in-process, "spawn", or a live ldl1d URL
	db       string // server database override
}

// buildTarget resolves the target: in-process view, spawned in-process
// ldl1d over HTTP, or a live server at a URL.  The returned cleanup tears
// down whatever was spawned.
func buildTarget(ctx context.Context, w *load.Workload, serverFlag, dbFlag string) (load.Target, func(), error) {
	db := w.DB
	if dbFlag != "" {
		db = dbFlag
	}
	noop := func() {}
	switch {
	case serverFlag == "":
		if w.Program == "" {
			return nil, noop, fmt.Errorf("workload %s declares no \\program; an in-process run needs one", w.Name)
		}
		eng, err := ldl1.New(w.Program)
		if err != nil {
			return nil, noop, fmt.Errorf("workload program: %w", err)
		}
		mv, err := eng.Materialize()
		if err != nil {
			return nil, noop, fmt.Errorf("materialize workload program: %w", err)
		}
		return load.NewViewTarget(mv, ldl1.ReadOpts{}), noop, nil
	case serverFlag == "spawn":
		if w.Program == "" {
			return nil, noop, fmt.Errorf("workload %s declares no \\program; -server spawn needs one", w.Name)
		}
		srv := server.New(server.Config{AllowAdmin: true})
		if err := srv.Load(db, w.Program); err != nil {
			return nil, noop, fmt.Errorf("spawn ldl1d: load %s: %w", db, err)
		}
		ts := httptest.NewServer(srv)
		return load.NewClientTarget(client.New(ts.URL, ts.Client()), db), ts.Close, nil
	default:
		c := client.New(serverFlag, nil)
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if _, err := c.Health(ctx); err != nil {
			return nil, noop, fmt.Errorf("server %s: %w", serverFlag, err)
		}
		if w.Program != "" {
			// Best-effort admission: a live server may already hold the
			// database, or run with -admin off — neither should stop the run.
			if err := c.Load(ctx, db, w.Program); err != nil {
				fmt.Fprintf(os.Stderr, "ldlload: note: could not load %q onto %s (%v); assuming it is already served\n",
					db, serverFlag, err)
			}
		}
		return load.NewClientTarget(c, db), noop, nil
	}
}

func runLoad(ctx context.Context, f loadFlags) error {
	w, err := load.ParseFile(f.workload)
	if err != nil {
		return err
	}
	switch f.mode {
	case "closed":
		if f.rate > 0 {
			return fmt.Errorf("-rate needs -mode open")
		}
	case "open":
		if f.rate <= 0 {
			return fmt.Errorf("-mode open needs a positive -rate")
		}
	default:
		return fmt.Errorf("unknown -mode %q (want closed or open)", f.mode)
	}
	tgt, cleanup, err := buildTarget(ctx, w, f.server, f.db)
	if err != nil {
		return err
	}
	defer cleanup()

	where := "in-process"
	if f.server != "" {
		where = f.server
	}
	fmt.Fprintf(os.Stderr, "ldlload: %s  mode=%s clients=%d duration=%v seed=%d target=%s\n",
		f.workload, f.mode, f.clients, f.duration, f.seed, where)
	res, err := load.Run(ctx, load.Config{
		Workload: w,
		Target:   tgt,
		Clients:  f.clients,
		Duration: f.duration,
		Rate:     f.rate,
		Seed:     f.seed,
		OnProgress: func(p load.Progress) {
			fmt.Fprintf(os.Stderr, "ldlload: %6.1fs  %9d ops  %6d errors  %10.0f ops/s\n",
				p.Elapsed.Seconds(), p.Ops, p.Errors, float64(p.Ops)/p.Elapsed.Seconds())
		},
	})
	if res == nil {
		return err
	}
	// A run cut short (Ctrl-C, SIGTERM, a stream error) still measured
	// something: show it before reporting why it ended.
	interrupted := errors.Is(err, context.Canceled)
	printResult(res, interrupted)
	switch {
	case interrupted:
		return fmt.Errorf("interrupted after %v of %v", res.Elapsed.Round(time.Millisecond), f.duration)
	case err != nil:
		return err
	case res.Errors > 0:
		return fmt.Errorf("%d operations failed", res.Errors)
	case res.Ops == 0:
		return fmt.Errorf("no operation completed in %v", f.duration)
	}
	return nil
}

func printResult(res *load.Result, interrupted bool) {
	note := ""
	if interrupted {
		note = "  (interrupted: partial run)"
	}
	target := ""
	if res.TargetRPS > 0 {
		target = fmt.Sprintf(" of %.0f targeted", res.TargetRPS)
	}
	fmt.Printf("mode=%s clients=%d seed=%d elapsed=%v%s\n", res.Mode, res.Clients, res.Seed, res.Elapsed.Round(time.Millisecond), note)
	failed := ""
	if res.FirstErr != nil {
		failed = fmt.Sprintf("; first: %v", res.FirstErr)
	}
	fmt.Printf("  throughput %.1f ops/s%s (%d ops, %d errors%s)\n", res.AchievedRPS, target, res.Ops, res.Errors, failed)
	fmt.Printf("  latency p50 %v  p95 %v  p99 %v  max %v  mean %v\n",
		time.Duration(res.Hist.Percentile(50)),
		time.Duration(res.Hist.Percentile(95)),
		time.Duration(res.Hist.Percentile(99)),
		time.Duration(res.Hist.Max()),
		time.Duration(res.Hist.Mean()))
}
