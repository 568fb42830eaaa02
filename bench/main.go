// Command bench is the repository's benchmark: four workloads over the
// LDL1 engine and its server, end-to-end numbers from an untraced run and
// per-layer numbers from a traced one, every answer checked against an
// oracle, all in one process that forks nothing and ends by itself.
//
//	sh bench/run.sh                      every workload, untraced then traced, as tables
//	sh bench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
//	                                     one run; the last line of output is one JSON object
//	sh bench/run.sh -aa 5                two interleaved sets of 5 full runs, compared
//
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var trace, aa int
	var budget time.Duration
	var manifest bool
	flag.StringVar(&cfg.workload, "workload", "", "run this workload once and print one JSON object (default: every workload, as tables)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "with -workload: 0 end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.jsonl")
	flag.DurationVar(&budget, "budget", 0, "wall-clock budget; on expiry print what there is and exit non-zero (default 170s for one run, 6m for all, scaled for -aa)")
	flag.IntVar(&aa, "aa", 0, "A/A mode: two interleaved sets of this many full untraced runs, compared against the bounds")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	cfg.trace = trace != 0
	if cfg.workload != "" && !slices.Contains(workloadNames(), cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if budget == 0 {
		switch {
		case cfg.workload != "":
			budget = 170 * time.Second
		case aa > 0:
			budget = time.Duration(2*aa) * 3 * time.Minute
		default:
			budget = 6 * time.Minute
		}
	}

	// os/signal starts its delivery goroutine on first use and keeps it for
	// the life of the process; start it before counting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT)
	signal.Stop(sig)
	baseline := runtime.NumGoroutine()
	// The budget and the signals share one context: either way every phase
	// winds down, the report says so, and the exit code is non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, budget)

	var code int
	switch {
	case cfg.workload != "":
		code = single(ctx, cfg)
	case aa > 0:
		code = runAA(ctx, cfg, aa)
	default:
		code = all(ctx, cfg)
	}
	if err := ctx.Err(); err != nil {
		why := "interrupted by signal"
		if errors.Is(err, context.DeadlineExceeded) {
			why = fmt.Sprintf("budget of %s used up", budget)
		}
		fmt.Fprintf(os.Stderr, "bench: %s; the report above is partial\n", why)
		code = 1
	}
	cancel()
	stopSignals()
	if err := assertClean(baseline); err != nil {
		fmt.Fprintf(os.Stderr, "bench: left something running: %v\n", err)
		return 1
	}
	return code
}

// single is the harness mode: one run, one JSON object as the last line.
// A run that could not complete prints no result.
func single(ctx context.Context, cfg config) int {
	r, err := runOne(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report(os.Stderr, cfg, r)
	line, err := json.Marshal(r.harness(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// all is the human mode: every workload untraced, then traced.
func all(ctx context.Context, cfg config) int {
	code := 0
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames() {
			c := cfg
			c.workload, c.trace = w, trace
			if trace {
				c.seconds = cfg.seconds * 0.4 // the traced pass is shorter; nothing end-to-end comes from it
			}
			r, err := runOne(ctx, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				code = 1
				if ctx.Err() != nil {
					return code
				}
				continue
			}
			report(os.Stdout, c, r)
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// report prints every metric of a run by name, with its unit.
func report(out *os.File, cfg config, r *result) {
	kind := "end-to-end (untraced)"
	if cfg.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %.0fs  %s ==\n", cfg.workload, cfg.seed, cfg.seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		tag := ""
		if !cfg.trace && metricDefs[n].Bound == 0 {
			tag = "  (demoted: does not gate)"
		}
		fmt.Fprintf(out, "  %-28s %14.6g %s%s\n", n, m.Value, m.Unit, tag)
	}
	errFrac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(out, "  %-28s %14.4f ratio  (%d failed of %d attempted)\n", "error_frac", errFrac, r.Failed, r.Attempted)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(out, "  ! %s\n", e)
	}
}

// assertClean is the last act: no child process exists, and the goroutine
// count is back to where main started.  Connections and listeners closed
// a moment ago may take a few scheduler turns to unwind, so it polls
// briefly before it gives up.
func assertClean(baseline int) error {
	kids, err := childProcesses()
	if err != nil {
		return err
	}
	if len(kids) > 0 {
		return fmt.Errorf("child processes %v", kids)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// childProcesses lists the pids of this process's children, from
// /proc/self/task/*/children.
func childProcesses() ([]string, error) {
	files, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil {
		return nil, err
	}
	var kids []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		kids = append(kids, strings.Fields(string(data))...)
	}
	return kids, nil
}
