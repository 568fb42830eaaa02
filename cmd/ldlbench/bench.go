package main

// Machine-readable benchmark mode: `ldlbench -bench BENCH_1.json` times one
// representative configuration per perf-relevant experiment (E01–E12; E3, E8
// and E9 are admissibility/semantics checks with nothing to time) through
// testing.Benchmark and writes a JSON report.  The schema is documented in
// README.md; files named BENCH_<n>.json at the repo root are committed
// snapshots for cross-revision comparison.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/lderr"
	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

// benchResult is one row of the JSON report.
type benchResult struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// DerivedFacts is the number of facts one operation derives;
	// FactsPerSec = DerivedFacts / (NsPerOp in seconds).  Both are 0 for
	// operations that derive nothing (model checking).
	DerivedFacts int64   `json:"derived_facts"`
	FactsPerSec  float64 `json:"facts_per_sec"`
	// IndexHits and FullScans count, for one operation, the candidate
	// probes answered by a (possibly composite) column hash index versus
	// the scans that enumerated a whole relation (eval.Stats).  Both are
	// 0 for operations that do not evaluate rules.
	IndexHits int64 `json:"index_hits"`
	FullScans int64 `json:"full_scans"`
	// Incremental-maintenance counters (v3), nonzero only for the u*
	// update-stream entries: facts removed by the delete-and-rederive
	// overestimate, overestimated deletions resurrected, and grouping
	// ≡-classes recomputed across the operation's transaction stream.
	DeletedOverestimate int64 `json:"deleted_overestimate"`
	Rederived           int64 `json:"rederived"`
	RegroupedClasses    int64 `json:"regrouped_classes"`
	// Planner and cache counters (v4): rule bodies whose cost-based join
	// order diverged from the static order, and answer-cache hits
	// (nonzero only for the q* prepared-query entries).
	PlansReordered int64 `json:"plans_reordered"`
	CacheHits      int64 `json:"cache_hits"`
	// Scale-sweep metrics (v5), set only on the s* EDB-load entries: heap
	// bytes retained per stored fact once the input slice is dropped, total
	// GC pause accumulated during the load, and the load's speedup over the
	// per-fact insert-loop baseline of the same sweep point.
	BytesPerFact float64 `json:"bytes_per_fact,omitempty"`
	GCPauseNs    int64   `json:"gc_pause_ns,omitempty"`
	LoadSpeedup  float64 `json:"load_speedup,omitempty"`
	// Load-driver metrics (v7), set only on the l* sustained-load entries
	// (and on reports written by `ldlbench -load`): latency percentiles of
	// one operation over the whole duration-based run, the throughput the
	// run achieved, the open-loop arrival rate it targeted (0 for closed
	// loop), the concurrent client count, and the loop mode.  On these rows
	// ns_per_op is the p50 latency, so `-compare` diffs remain meaningful.
	LatencyP50Ns int64   `json:"latency_p50_ns,omitempty"`
	LatencyP95Ns int64   `json:"latency_p95_ns,omitempty"`
	LatencyP99Ns int64   `json:"latency_p99_ns,omitempty"`
	LatencyMaxNs int64   `json:"latency_max_ns,omitempty"`
	AchievedRPS  float64 `json:"achieved_rps,omitempty"`
	TargetRPS    float64 `json:"target_rps,omitempty"`
	Clients      int     `json:"clients,omitempty"`
	Mode         string  `json:"mode,omitempty"`
}

type benchReport struct {
	Version   int    `json:"version"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU (v5) records the cores the s* sweep's parallel loads had; a
	// load_speedup from a single-core host measures bulk-path efficiency,
	// not parallelism.
	NumCPU  int           `json:"num_cpu"`
	Results []benchResult `json:"results"`
}

// benchEntry names one operation; op returns the evaluation counters of
// one run (zero for non-evaluating operations).  The context carries the
// -timeout deadline; a breached deadline aborts the run mid-fixpoint.
type benchEntry struct {
	id, name string
	op       func(ctx context.Context) (eval.Stats, error)
}

// scaleEntry is a self-measured s* sweep entry: run executes one cold load
// and returns a prefilled row (see scale.go).
type scaleEntry struct {
	id, name string
	run      func() (*benchResult, error)
}

func evalOp(p *ast.Program, db *store.DB, strat eval.Strategy) func(context.Context) (eval.Stats, error) {
	return func(ctx context.Context) (eval.Stats, error) {
		var st eval.Stats
		_, err := eval.Eval(p, db, eval.Options{Strategy: strat, Stats: &st, Ctx: ctx})
		return st, err
	}
}

// evalOpStatic pins the static (source-preferring) join order; paired with
// evalOp on the same program it isolates what cost-based reordering buys.
func evalOpStatic(p *ast.Program, db *store.DB, strat eval.Strategy) func(context.Context) (eval.Stats, error) {
	return func(ctx context.Context) (eval.Stats, error) {
		var st eval.Stats
		_, err := eval.Eval(p, db, eval.Options{Strategy: strat, Stats: &st, Ctx: ctx, NoReorder: true})
		return st, err
	}
}

// queryEngine builds a magic engine over src plus an extensional database,
// returning the engine and its stats sink (reset by each op run).
func queryEngine(src string, db *store.DB, opts ...ldl1.Option) (*ldl1.Engine, *eval.Stats, error) {
	var st eval.Stats
	eng, err := ldl1.New(src, append([]ldl1.Option{ldl1.WithMagic(true), ldl1.WithStats(&st)}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	eng.AddDB(db)
	return eng, &st, nil
}

// preparedOp is the prepared side of a q* pair: the query is compiled once
// with Prepare, and one operation re-executes it for every constant, so
// repeats after the first run answer from the answer cache.
func preparedOp(src string, db *store.DB, query string, consts []string) (func(context.Context) (eval.Stats, error), error) {
	eng, st, err := queryEngine(src, db)
	if err != nil {
		return nil, err
	}
	pq, err := eng.Prepare(query)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (eval.Stats, error) {
		*st = eval.Stats{}
		for _, c := range consts {
			if _, err := pq.ExecCtx(ctx, ldl1.Sym(c)); err != nil {
				return *st, err
			}
		}
		return *st, nil
	}, nil
}

// unpreparedOp is the baseline side: the same lookups issued through
// QueryCtx on a cache-disabled engine, so every call re-parses, re-rewrites,
// and re-evaluates the magic program.
func unpreparedOp(src string, db *store.DB, queryFmt string, consts []string) (func(context.Context) (eval.Stats, error), error) {
	eng, st, err := queryEngine(src, db, ldl1.WithoutQueryCache())
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (eval.Stats, error) {
		*st = eval.Stats{}
		for _, c := range consts {
			if _, err := eng.QueryCtx(ctx, fmt.Sprintf(queryFmt, c)); err != nil {
				return *st, err
			}
		}
		return *st, nil
	}, nil
}

// incrOp replays an update stream through a materialized view: one initial
// evaluation, then one incremental Apply per transaction.
func incrOp(p *ast.Program, gen func() (*store.DB, []workload.Update)) func(context.Context) (eval.Stats, error) {
	return func(ctx context.Context) (eval.Stats, error) {
		var st eval.Stats
		initial, txs := gen()
		m, err := incr.New(p, initial, incr.Options{Stats: &st})
		if err != nil {
			return st, err
		}
		for _, u := range txs {
			if _, err := m.ApplyCtx(ctx, incr.Tx{Insert: u.Insert, Retract: u.Retract}); err != nil {
				return st, err
			}
		}
		return st, nil
	}
}

// recomputeOp replays the same stream by full recomputation: the EDB is
// updated in place and the whole fixpoint re-evaluated after every
// transaction — the baseline the incremental entries are compared against.
func recomputeOp(p *ast.Program, gen func() (*store.DB, []workload.Update)) func(context.Context) (eval.Stats, error) {
	return func(ctx context.Context) (eval.Stats, error) {
		var st eval.Stats
		db, txs := gen()
		if _, err := eval.Eval(p, db, eval.Options{Stats: &st, Ctx: ctx}); err != nil {
			return st, err
		}
		for _, u := range txs {
			for _, f := range u.Insert {
				db.Insert(f)
			}
			for _, f := range u.Retract {
				db.Delete(f)
			}
			if _, err := eval.Eval(p, db, eval.Options{Stats: &st, Ctx: ctx}); err != nil {
				return st, err
			}
		}
		return st, nil
	}
}

// churnRules is the u3 program: negation and grouping over a churning EDB.
const churnRules = `
	multi(P) <- sp(S1, P), sp(S2, P), S1 /= S2.
	sole(S, P) <- sp(S, P), not multi(P).
	supplies(S, <P>) <- sp(S, P).
`

func benchEntries() ([]benchEntry, error) {
	// parse records the first failure instead of panicking, so a malformed
	// setup program fails the whole run with one error line.
	var setupErr error
	parse := func(src string) *ast.Program {
		p, err := parser.ParseProgram(src)
		if err != nil {
			if setupErr == nil {
				setupErr = err
			}
			return ast.NewProgram()
		}
		return p
	}
	excl := ancestorRules + `
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
	`
	exclProg := parse(excl)
	e7prog := parse(`
		q(X) <- p(X), h(X).
		p(<X>) <- r(X).
		r(1).
		h({1}).
	`)
	e7model := store.NewDB()
	for _, r := range parse("r(1). h({1}). p({1}). q({1}).").Rules {
		e7model.Insert(term.NewFact(r.Head.Pred, r.Head.Args...))
	}
	e10prog := parse(ancestorRules)
	e10db := workload.ParentChain(32)
	if setupErr != nil {
		return nil, setupErr
	}
	e11pos, err := rewrite.EliminateNegation(exclProg)
	if err != nil {
		return nil, err
	}
	e12prog, err := rewrite.Rewrite(parse(`
		pa({{1, 2}, {3}, {4, 5}}). pa({{6}, {7, 8}}).
		oka(X) <- pa(<<X>>).
	`))
	if err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}

	churnProg := parse(churnRules)
	// j2 adversarial variant: the source order leads with the 4096-row wide
	// relation (nothing bound), so the static planner scans it in full; the
	// cost planner starts from the 48-row dim probe and reaches wide with
	// its selective (G, T) pair bound.
	wideBadProg := parse(`sel2(G, P) <- wide(G, T, P, W), dim(G, T).`)
	bookProg := parse(`book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < 100.`)
	suppliesProg := parse(`supplies(S, <P>) <- sp(S, P).`)
	partCostProg := parse(partCostRules)
	triangleProg := parse(`triangle(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z).`)
	wideProg := parse(`sel(G, P) <- dim(G, T), wide(G, T, P, W).`)
	if setupErr != nil {
		return nil, setupErr
	}

	// q* point-lookup constants: eight values cycled per operation.
	q1consts := []string{"n8", "n49", "n90", "n131", "n172", "n213", "n254", "n0"}
	q2consts := []string{"n512", "n575", "n638", "n701", "n764", "n827", "n890", "n953"}
	const sgRules = `
		sib(X, Y) <- parent(P, X), parent(P, Y).
		sg(X, Y) <- sib(X, Y).
		sg(X, Y) <- parent(P1, X), sg(P1, P2), parent(P2, Y).
	`
	// The v1 analyzer workload's source text, built once: recursive rules
	// plus a 256-node chain of ground facts, so the type-inference fixpoint
	// sees both rule-derived and EDB-style signatures.
	var vetSrcB strings.Builder
	vetSrcB.WriteString(ancestorRules)
	vetSrcB.WriteString(sgRules)
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&vetSrcB, "parent(n%d, n%d).\n", i, i+1)
	}
	vetProgram := vetSrcB.String()

	q1prep, err := preparedOp(ancestorRules, workload.ParentChain(256), "ancestor(n0, W)", q1consts)
	if err != nil {
		return nil, err
	}
	q1unprep, err := unpreparedOp(ancestorRules, workload.ParentChain(256), "ancestor(%s, W)", q1consts)
	if err != nil {
		return nil, err
	}
	q2prep, err := preparedOp(sgRules, workload.ParentTree(9), "sg(n512, W)", q2consts)
	if err != nil {
		return nil, err
	}
	q2unprep, err := unpreparedOp(sgRules, workload.ParentTree(9), "sg(%s, W)", q2consts)
	if err != nil {
		return nil, err
	}

	entries := []benchEntry{
		{"e1", "ancestor-naive-chain-64",
			evalOp(e10prog, workload.ParentChain(64), eval.Naive)},
		{"e1", "ancestor-seminaive-chain-128",
			evalOp(e10prog, workload.ParentChain(128), eval.SemiNaive)},
		{"e2", "excl-ancestor-chain-32",
			evalOp(exclProg, workload.Persons(workload.ParentChain(32), 32), eval.SemiNaive)},
		{"e4", "book-deal-books-16",
			evalOp(bookProg, workload.Books(16, 7), eval.SemiNaive)},
		{"e5", "grouping-suppliers-256",
			evalOp(suppliesProg, workload.SupplierParts(256, 8, 11), eval.SemiNaive)},
		{"e6", "part-cost-depth2-fanout2",
			evalOp(partCostProg, workload.BOM(2, 2), eval.SemiNaive)},
		{"e7", "model-check", func(ctx context.Context) (eval.Stats, error) {
			ok, err := model.IsModel(e7prog, e7model)
			if err == nil && !ok {
				err = fmt.Errorf("IsModel = false")
			}
			return eval.Stats{}, err
		}},
		{"e10", "eval-and-verify-chain-32", func(ctx context.Context) (eval.Stats, error) {
			var st eval.Stats
			m, err := eval.Eval(e10prog, e10db, eval.Options{Stats: &st, Ctx: ctx})
			if err != nil {
				return st, err
			}
			ok, err := model.IsModel(e10prog, m)
			if err == nil && !ok {
				err = fmt.Errorf("result is not a model")
			}
			return st, err
		}},
		{"e11", "neg-elim-original",
			evalOp(exclProg, workload.Persons(workload.ParentChain(16), 16), eval.SemiNaive)},
		{"e11", "neg-elim-positive",
			evalOp(e11pos, workload.Persons(workload.ParentChain(16), 16), eval.SemiNaive)},
		{"e12", "body-patterns",
			evalOp(e12prog, store.NewDB(), eval.SemiNaive)},
		// Join-heavy workloads exercising composite (multi-bound-column)
		// indexes: the triangle rule's third literal probes e on both
		// columns; the wide-EDB join probes wide on its two leading
		// columns, only the pair being selective.
		{"j1", "triangle-join-n96",
			evalOp(triangleProg, workload.Graph(96, 4, 13), eval.SemiNaive)},
		{"j2", "wide-selective-join-4096",
			evalOp(wideProg, workload.WideSelective(4096, 48, 8, 17), eval.SemiNaive)},
		// j2 adversarial pair (v4): same join with the relations in the bad
		// source order, evaluated with cost-based reordering on and off.
		{"j2", "wide-srcbad-cost-4096",
			evalOp(wideBadProg, workload.WideSelective(4096, 48, 8, 17), eval.SemiNaive)},
		{"j2", "wide-srcbad-static-4096",
			evalOpStatic(wideBadProg, workload.WideSelective(4096, 48, 8, 17), eval.SemiNaive)},
		// Prepared-query workloads (v4): eight point lookups per operation,
		// Prepare+ExecCtx with the answer cache versus per-call QueryCtx on
		// a cache-disabled engine.
		{"q1", "anc-point-prepared-chain256", q1prep},
		{"q1", "anc-point-unprepared-chain256", q1unprep},
		{"q2", "sg-point-prepared-tree9", q2prep},
		{"q2", "sg-point-unprepared-tree9", q2unprep},
		// Update-stream workloads (v3): each op replays a transaction
		// stream, incrementally (materialize once, Apply per tx) versus by
		// full recomputation after every tx.  Paired entries share an id so
		// the speedup is the ratio of their ns_per_op.
		{"u1", "update-trickle-incr-chain128",
			incrOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.TrickleInserts(128, 32)
			})},
		{"u1", "update-trickle-recompute-chain128",
			recomputeOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.TrickleInserts(128, 32)
			})},
		{"u1", "update-trickle-incr-chain256",
			incrOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.TrickleInserts(256, 32)
			})},
		{"u1", "update-trickle-recompute-chain256",
			recomputeOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.TrickleInserts(256, 32)
			})},
		{"u2", "update-mixed-incr-chain128",
			incrOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.MixedUpdates(128, 32, 23)
			})},
		{"u2", "update-mixed-recompute-chain128",
			recomputeOp(e10prog, func() (*store.DB, []workload.Update) {
				return workload.MixedUpdates(128, 32, 23)
			})},
		{"u3", "update-churn-incr-sp64x8",
			incrOp(churnProg, func() (*store.DB, []workload.Update) {
				return workload.ChurnSupplierParts(64, 8, 32, 29)
			})},
		{"u3", "update-churn-recompute-sp64x8",
			recomputeOp(churnProg, func() (*store.DB, []workload.Update) {
				return workload.ChurnSupplierParts(64, 8, 32, 29)
			})},
		// Static-analysis latency (v8): one full analyzer pipeline run —
		// parse, safety/admissibility/stratification passes, and the LDL2xx
		// type-inference fixpoint — over the ancestor + same-generation
		// rules with a 256-fact parent chain inlined as ground facts, the
		// same scale the q1 query workloads evaluate.  Tracks the cost a
		// strict server pays at admission and `ldl1 vet` pays per file.
		{"v1", "vet-types-chain256", func(ctx context.Context) (eval.Stats, error) {
			ds := analyze.Source(vetProgram, analyze.Options{})
			if n := analyze.ErrorCount(ds); n > 0 {
				return eval.Stats{}, fmt.Errorf("vet benchmark program has %d errors", n)
			}
			return eval.Stats{}, nil
		}},
	}
	// d* server smoke workloads (v6): the q1 lookups through ldl1d's HTTP
	// stack and the Go client, prepared handle vs per-request query text.
	srvEntries, err := serverEntries(q1consts)
	if err != nil {
		return nil, err
	}
	entries = append(entries, srvEntries...)
	return entries, nil
}

// runBenchJSON times every entry and writes the report to path, returning
// it for optional comparison.  Each entry is timed reps times and the
// fastest repetition is reported: evaluation is deterministic, so the
// minimum is the run least disturbed by scheduler noise (which only ever
// adds time).  timeout > 0 bounds every operation run; an entry that
// exceeds it is reported as skipped and the remaining entries still
// execute.  filter, when nonempty, restricts the run to entries whose id
// starts with it ("q" selects q1 and q2).
func runBenchJSON(path string, reps int, timeout time.Duration, filter, scale string) (*benchReport, error) {
	// Fail on an unwritable path now, not after minutes of timing — but
	// stage the report in a temp file and rename it into place only once it
	// has results, so an aborted or empty run can never leave a truncated
	// snapshot behind (the fate of the once-committed zero-byte
	// BENCH_5.json, which silently disarmed the CI compare step).
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	defer func() {
		out.Close()
		os.Remove(tmp) // no-op after a successful rename
	}()
	report := benchReport{
		Version:   8, // v8 adds the v1 static-analysis latency entry
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if reps < 1 {
		reps = 1
	}
	runOp := func(e benchEntry) (eval.Stats, error) {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return e.op(ctx)
	}
	entries, err := benchEntries()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if filter != "" && !strings.HasPrefix(e.id, filter) {
			continue
		}
		_, err := runOp(e) // warm-up: fills prepared/answer caches
		if errors.Is(err, lderr.DeadlineExceeded) {
			fmt.Printf("%-4s %-30s SKIPPED: exceeded -timeout %v\n", e.id, e.name, timeout)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.id, e.name, err)
		}
		// Steady-state counters: a second run after the warm-up, so the q*
		// prepared entries report their cache-hit profile (the warm-up run
		// is all misses) and match what the timing loop below measures.
		st, err := runOp(e)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.id, e.name, err)
		}
		var r testing.BenchmarkResult
		var opErr error
		for rep := 0; rep < reps && opErr == nil; rep++ {
			got := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runOp(e); err != nil {
						opErr = err
						return
					}
				}
			})
			if rep == 0 || got.NsPerOp() < r.NsPerOp() {
				r = got
			}
		}
		if errors.Is(opErr, lderr.DeadlineExceeded) {
			fmt.Printf("%-4s %-30s SKIPPED: exceeded -timeout %v\n", e.id, e.name, timeout)
			continue
		}
		if opErr != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.id, e.name, opErr)
		}
		row := benchResult{
			ID:                  e.id,
			Name:                e.name,
			NsPerOp:             r.NsPerOp(),
			AllocsPerOp:         r.AllocsPerOp(),
			BytesPerOp:          r.AllocedBytesPerOp(),
			DerivedFacts:        int64(st.Derived),
			IndexHits:           int64(st.IndexHits),
			FullScans:           int64(st.FullScans),
			DeletedOverestimate: int64(st.DeletedOverestimate),
			Rederived:           int64(st.Rederived),
			RegroupedClasses:    int64(st.RegroupedClasses),
			PlansReordered:      int64(st.PlansReordered),
			CacheHits:           int64(st.CacheHits),
		}
		if st.Derived > 0 && r.NsPerOp() > 0 {
			row.FactsPerSec = float64(st.Derived) * 1e9 / float64(r.NsPerOp())
		}
		fmt.Printf("%-4s %-30s %12d ns/op %10d allocs/op %14.0f facts/sec %9d idx hits %7d scans\n",
			e.id, e.name, row.NsPerOp, row.AllocsPerOp, row.FactsPerSec, row.IndexHits, row.FullScans)
		report.Results = append(report.Results, row)
	}
	// s* scale sweep (v5): self-measured cold loads, one run each — no
	// warm-up, reps, or -timeout (a cold load is the phenomenon).
	sweep, err := scaleEntries(scale)
	if err != nil {
		return nil, err
	}
	for _, e := range sweep {
		if filter != "" && !strings.HasPrefix(e.id, filter) {
			continue
		}
		row, err := e.run()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.id, e.name, err)
		}
		row.ID, row.Name = e.id, e.name
		fmt.Printf("%-4s %-30s %12d ns/op %14.0f facts/sec %8.1f B/fact %10d gc-pause-ns %6.2fx\n",
			e.id, e.name, row.NsPerOp, row.FactsPerSec, row.BytesPerFact, row.GCPauseNs, row.LoadSpeedup)
		report.Results = append(report.Results, *row)
	}
	// l* sustained-load entries (v7): duration-based open/closed-loop runs
	// of the committed workloads/*.ldlw scenarios through internal/load,
	// in-process and server-backed, one run each (the duration is the
	// experiment; reps and -timeout do not apply).
	for _, e := range loadSuiteEntries() {
		if filter != "" && !strings.HasPrefix(e.id, filter) {
			continue
		}
		row, err := e.run()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.id, e.name, err)
		}
		row.ID, row.Name = e.id, e.name
		fmt.Printf("%-4s %-30s %12d p50 ns %10d p95 ns %10d p99 ns %12.0f rps %8s\n",
			e.id, e.name, row.LatencyP50Ns, row.LatencyP95Ns, row.LatencyP99Ns, row.AchievedRPS, row.Mode)
		report.Results = append(report.Results, *row)
	}
	if len(report.Results) == 0 {
		return nil, fmt.Errorf("no benchmark entries matched (filter %q) — refusing to write an empty report", filter)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if _, err := out.Write(append(data, '\n')); err != nil {
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	return &report, os.Rename(tmp, path)
}

// writeBenchReport writes a report to path through a temp-file rename,
// refusing an empty one — the same guarantees runBenchJSON gives, for
// callers (the -load mode) that assemble their own rows.
func writeBenchReport(path string, report *benchReport) error {
	if len(report.Results) == 0 {
		return fmt.Errorf("refusing to write a report with no results to %s", path)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
