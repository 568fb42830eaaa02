package ldl1

// TestWorkCounts is the deterministic gate on evaluator work: every row
// evaluates one fixed (program, input) configuration and its exact eval.Stats
// counters are compared for equality with testdata/workcounts.golden.  The
// counters are a function of program and input only — no clock is read — so
// a planner, fixpoint-driver or maintenance regression fails `go test .`,
// and an improvement is a reviewed diff of the golden file:
//
//	go test -run TestWorkCounts -update .
//
// The relations between rows that the paper (or a design section) claims
// are assertions below, not golden values, so -update cannot bless a planner
// that stopped reordering or a maintenance path that out-derives
// recomputation.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/magic"
	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/workcounts.golden")

const workGolden = "testdata/workcounts.golden"

// work is what one row reports: the counters and the size of what it
// computed (facts of the model, or answer rows for the query rows).
type work struct {
	eval.Stats
	model int
}

// workRow is one configuration.  run builds its input from scratch, so two
// calls are independent.
type workRow struct {
	id, name string
	// slow marks the two chain256 update rows, seconds per run: skipped
	// under -short.
	slow bool
	run  func() (work, error)
}

func (r workRow) key() string { return r.id + " " + r.name }

const (
	workAncestorRules = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
`
	workExclRules = workAncestorRules + `
	excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
`
	// e6: §1 part cost (grouping + partition + set recursion).
	workPartCostRules = `
	part(P, <S>) <- p(P, S).
	tc({X}, C) <- q(X, C).
	tc({X}, C) <- part(X, S), tc(S, C).
	tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
	result(X, C) <- tc(S, C), member(X, S), S = {X}.
`
	// e15: §6 young, the magic-sets query of the paper.
	workYoungRules = `
	a(X, Y) <- p(X, Y).
	a(X, Y) <- a(X, Z), a(Z, Y).
	sg(X, Y) <- siblings(X, Y).
	sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
	hasdesc(X) <- a(X, Z).
	young(X, <Y>) <- sg(X, Y), not hasdesc(X).
`
	workSgRules = `
	sib(X, Y) <- parent(P, X), parent(P, Y).
	sg(X, Y) <- sib(X, Y).
	sg(X, Y) <- parent(P1, X), sg(P1, P2), parent(P2, Y).
`
	// u3: negation and grouping over a churning EDB.
	workChurnRules = `
	multi(P) <- sp(S1, P), sp(S2, P), S1 /= S2.
	sole(S, P) <- sp(S, P), not multi(P).
	supplies(S, <P>) <- sp(S, P).
`
	workE7Rules = `
	q(X) <- p(X), h(X).
	p(<X>) <- r(X).
	r(1).
	h({1}).
`
)

// evalRow evaluates prog over a fresh db() with the given options.
func evalRow(prog *ast.Program, db func() *store.DB, opts eval.Options) func() (work, error) {
	return func() (work, error) {
		var w work
		opts := opts
		opts.Stats = &w.Stats
		out, err := eval.Eval(prog, db(), opts)
		if err == nil {
			w.model = out.Len()
		}
		return w, err
	}
}

// engineRow runs the whole program through the root Engine, so the row
// depends on how the Option under test is interpreted there.
func engineRow(src string, db func() *store.DB, opts ...Option) func() (work, error) {
	return func() (work, error) {
		var w work
		eng, err := New(src, append([]Option{WithStats(&w.Stats)}, opts...)...)
		if err != nil {
			return w, err
		}
		eng.AddDB(db())
		m, err := eng.Run()
		if err == nil {
			w.model = m.Len()
		}
		return w, err
	}
}

// pointRow issues the same eight point lookups twice against one magic
// engine and reports the second pass, the steady state: prepared, every Exec
// of the one Prepare handle is an answer-cache hit; unprepared, every lookup
// recompiles and re-evaluates on a cache-disabled engine (over relations the
// first pass already indexed, which is what the planner then sees).
func pointRow(src string, db func() *store.DB, pred string, consts []string, prepared bool) func() (work, error) {
	return func() (work, error) {
		var w work
		opts := []Option{WithMagic(true), WithStats(&w.Stats)}
		if !prepared {
			opts = append(opts, WithoutQueryCache())
		}
		eng, err := New(src, opts...)
		if err != nil {
			return w, err
		}
		eng.AddDB(db())
		lookup := func(c string) (*Answers, error) {
			return eng.Query(fmt.Sprintf("%s(%s, W)", pred, c))
		}
		if prepared {
			pq, err := eng.Prepare(fmt.Sprintf("%s(%s, W)", pred, consts[0]))
			if err != nil {
				return w, err
			}
			lookup = func(c string) (*Answers, error) { return pq.Exec(Sym(c)) }
		}
		for pass := 0; pass < 2; pass++ {
			w = work{}
			for _, c := range consts {
				a, err := lookup(c)
				if err != nil {
					return w, err
				}
				w.model += a.Len()
			}
		}
		return w, nil
	}
}

// magicRow answers one selective query through a magic rewriting, or (plain)
// by evaluating the whole program and selecting.
func magicRow(prog *ast.Program, db func() *store.DB, query string, variant magic.Variant, plain bool) func() (work, error) {
	return func() (work, error) {
		var w work
		q, err := parser.ParseQuery(query)
		if err != nil {
			return w, err
		}
		opts := eval.Options{Stats: &w.Stats}
		if plain {
			model, err := eval.Eval(prog, db(), opts)
			if err != nil {
				return w, err
			}
			sols, err := eval.SolveLimitsCtx(opts.Ctx, q.Body, model, eval.SolveLimits{})
			w.model = len(sols)
			return w, err
		}
		pr, err := magic.PrepareVariant(prog, q, variant)
		if err != nil {
			return w, err
		}
		res, err := pr.Exec(db(), nil, opts)
		if err == nil {
			w.model = len(res.Solutions)
		}
		return w, err
	}
}

// incrRow replays an update stream through a materialized view: one initial
// evaluation, then one incremental Apply per transaction.
func incrRow(prog *ast.Program, gen func() (*store.DB, []workload.Update)) func() (work, error) {
	return func() (work, error) {
		var w work
		initial, txs := gen()
		m, err := incr.New(prog, initial, incr.Options{Stats: &w.Stats})
		if err != nil {
			return w, err
		}
		for _, u := range txs {
			if _, err := m.ApplyCtx(context.Background(), incr.Tx{Insert: u.Insert, Retract: u.Retract}); err != nil {
				return w, err
			}
		}
		w.model = m.Snapshot().Len()
		return w, nil
	}
}

// recomputeRow replays the same stream by full recomputation after every
// transaction — the twin every incrRow is compared against.
func recomputeRow(prog *ast.Program, gen func() (*store.DB, []workload.Update)) func() (work, error) {
	return func() (work, error) {
		var w work
		db, txs := gen()
		opts := eval.Options{Stats: &w.Stats}
		out, err := eval.Eval(prog, db, opts)
		for _, u := range txs {
			if err != nil {
				break
			}
			for _, f := range u.Insert {
				db.Insert(f)
			}
			for _, f := range u.Retract {
				db.Delete(f)
			}
			out, err = eval.Eval(prog, db, opts)
		}
		if err == nil {
			w.model = out.Len()
		}
		return w, err
	}
}

// loadRow replays an insert-only stream through the root Engine: AddDB and
// Run, then per k transactions k AddFacts and one read — Run, or with a
// query that query, whose rows w.model counts.  The loads are maintained
// into the engine's one model by the next Run, all k as one transaction.
// With split, another engine sharing the stats sink runs the initial
// database, and the engine that loads and queries never builds a model: a
// query row's twin, which pays the Run and the queries and no maintenance.
func loadRow(src string, gen func() (*store.DB, []workload.Update), k int, query string, split bool, opts ...Option) func() (work, error) {
	return func() (work, error) {
		var w work
		opts := append(opts, WithStats(&w.Stats))
		eng, err := New(src, opts...)
		if err != nil {
			return w, err
		}
		initial, txs := gen()
		eng.AddDB(initial)
		first := eng
		if split {
			if first, err = New(src, opts...); err != nil {
				return w, err
			}
			first.AddDB(initial)
		}
		m, err := first.Run()
		read := func() {
			if query == "" {
				m, err = eng.Run()
				return
			}
			var a *Answers
			if a, err = eng.Query(query); err == nil {
				w.model = a.Len()
			}
		}
		for i, u := range txs {
			if err != nil {
				return w, err
			}
			if len(u.Retract) > 0 {
				return w, fmt.Errorf("an engine only loads insertions")
			}
			var text strings.Builder
			for _, f := range u.Insert {
				text.WriteString(f.String() + ". ")
			}
			if err = eng.AddFacts(text.String()); err == nil && ((i+1)%k == 0 || i == len(txs)-1) {
				read()
			}
		}
		if err == nil && query == "" {
			w.model = m.Len()
		}
		return w, err
	}
}

// batched merges every k transactions of gen's stream into one.
func batched(gen func() (*store.DB, []workload.Update), k int) func() (*store.DB, []workload.Update) {
	return func() (*store.DB, []workload.Update) {
		db, txs := gen()
		var out []workload.Update
		for i, u := range txs {
			if i%k == 0 {
				out = append(out, workload.Update{})
			}
			b := &out[len(out)-1]
			b.Insert = append(b.Insert, u.Insert...)
			b.Retract = append(b.Retract, u.Retract...)
		}
		return db, out
	}
}

// leafAttaches returns the §6 family tree of the young program — p and
// siblings over workload.ParentTree(depth) — and one transaction per leaf
// of k that attaches a fresh child under it.  Each attach gives its leaf a
// descendant, so the negation of young deletes the leaf's class above.
func leafAttaches(depth, k int) func() (*store.DB, []workload.Update) {
	return func() (*store.DB, []workload.Update) {
		db := store.NewDB()
		for _, f := range workload.ParentTree(depth).Facts() {
			db.Insert(term.NewFact("p", f.Args...))
		}
		for i := 2; i < 2<<depth; i += 2 {
			a, b := term.Atom(fmt.Sprint("n", i)), term.Atom(fmt.Sprint("n", i+1))
			db.Insert(term.NewFact("siblings", a, b))
			db.Insert(term.NewFact("siblings", b, a))
		}
		txs := make([]workload.Update, k)
		for i := range txs {
			leaf := term.Atom(fmt.Sprint("n", 1<<depth+i*(1<<depth)/k))
			txs[i].Insert = []*term.Fact{term.NewFact("p", leaf, term.Atom(fmt.Sprint("x", i)))}
		}
		return db, txs
	}
}

func workRows(t *testing.T) []workRow {
	parse := func(src string) *ast.Program {
		t.Helper()
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	anc, excl := parse(workAncestorRules), parse(workExclRules)
	exclPositive, err := rewrite.EliminateNegation(excl)
	if err != nil {
		t.Fatal(err)
	}
	bodyPatterns, err := rewrite.Rewrite(parse(`
		pa({{1, 2}, {3}, {4, 5}}). pa({{6}, {7, 8}}).
		oka(X) <- pa(<<X>>).
	`))
	if err != nil {
		t.Fatal(err)
	}
	young := parse(workYoungRules)
	churn := parse(workChurnRules)
	// j2: `wide` has 4096 rows of which a (G, T) pair selects few; `dim` has
	// 48.  The source-bad rule leads with wide, nothing bound.
	wideGood := parse(`sel(G, P) <- dim(G, T), wide(G, T, P, W).`)
	wideBad := parse(`sel2(G, P) <- wide(G, T, P, W), dim(G, T).`)

	semi := eval.Options{Strategy: eval.SemiNaive}
	chain := func(n int) func() *store.DB { return func() *store.DB { return workload.ParentChain(n) } }
	persons := func(n int) func() *store.DB {
		return func() *store.DB { return workload.Persons(workload.ParentChain(n), n) }
	}
	tree9 := func() *store.DB { return workload.ParentTree(9) }
	wide := func() *store.DB { return workload.WideSelective(4096, 48, 8, 17) }
	dag := func() *store.DB { return workload.RandomDAG(256, 2, 5) }
	forest := func(n int) func() *store.DB { return func() *store.DB { return workload.FamilyForest(n, 4) } }
	trickle := func(n int) func() (*store.DB, []workload.Update) {
		return func() (*store.DB, []workload.Update) { return workload.TrickleInserts(n, 32) }
	}
	mixed := func() (*store.DB, []workload.Update) { return workload.MixedUpdates(128, 32, 23) }
	churnSP := func() (*store.DB, []workload.Update) { return workload.ChurnSupplierParts(64, 8, 32, 29) }
	// The chain grows to n32 and every node is a person from the start, so
	// each new edge makes ancestor facts true that excl_ancestor negates.
	exclTrickle := func() (*store.DB, []workload.Update) {
		db, txs := workload.TrickleInserts(24, 8)
		return workload.Persons(db, 32), txs
	}

	q1 := []string{"n8", "n49", "n90", "n131", "n172", "n213", "n254", "n0"}
	q2 := []string{"n512", "n575", "n638", "n701", "n764", "n827", "n890", "n953"}

	return []workRow{
		{id: "e1", name: "ancestor-naive-chain-64", run: evalRow(anc, chain(64), eval.Options{Strategy: eval.Naive})},
		{id: "e1", name: "ancestor-seminaive-chain-64", run: evalRow(anc, chain(64), semi)},
		{id: "e1", name: "ancestor-seminaive-chain-128", run: evalRow(anc, chain(128), semi)},
		{id: "e2", name: "excl-ancestor-chain-32", run: evalRow(excl, persons(32), semi)},
		{id: "e4", name: "book-deal-books-16", run: evalRow(
			parse(`book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < 100.`),
			func() *store.DB { return workload.Books(16, 7) }, semi)},
		{id: "e5", name: "grouping-suppliers-256", run: evalRow(
			parse(`supplies(S, <P>) <- sp(S, P).`),
			func() *store.DB { return workload.SupplierParts(256, 8, 11) }, semi)},
		{id: "e6", name: "part-cost-depth2-fanout2", run: evalRow(
			parse(workPartCostRules), func() *store.DB { return workload.BOM(2, 2) }, semi)},
		{id: "e7", name: "model-check", run: func() (work, error) {
			m := store.NewDB()
			for _, r := range parse("r(1). h({1}). p({1}). q({1}).").Rules {
				m.Insert(term.NewFact(r.Head.Pred, r.Head.Args...))
			}
			ok, err := model.IsModel(parse(workE7Rules), m)
			if err == nil && !ok {
				err = fmt.Errorf("IsModel = false")
			}
			return work{model: m.Len()}, err
		}},
		{id: "e10", name: "eval-and-verify-chain-32", run: func() (work, error) {
			var w work
			m, err := eval.Eval(anc, workload.ParentChain(32), eval.Options{Stats: &w.Stats})
			if err != nil {
				return w, err
			}
			w.model = m.Len()
			ok, err := model.IsModel(anc, m)
			if err == nil && !ok {
				err = fmt.Errorf("result is not a model")
			}
			return w, err
		}},
		{id: "e11", name: "neg-elim-original", run: evalRow(excl, persons(16), semi)},
		{id: "e11", name: "neg-elim-positive", run: evalRow(exclPositive, persons(16), semi)},
		{id: "e12", name: "body-patterns", run: evalRow(bodyPatterns, store.NewDB, semi)},
		// E15 (§6): magic work is flat in |DB|, whole-program work is not.
		{id: "e15", name: "young-magic-forest-16", run: magicRow(young, forest(16), "young(n16, S)", magic.Basic, false)},
		{id: "e15", name: "young-supplementary-forest-16", run: magicRow(young, forest(16), "young(n16, S)", magic.Supplementary, false)},
		{id: "e15", name: "young-plain-forest-16", run: magicRow(young, forest(16), "young(n16, S)", magic.Basic, true)},
		{id: "e15", name: "young-magic-forest-64", run: magicRow(young, forest(64), "young(n16, S)", magic.Basic, false)},
		{id: "e15", name: "young-plain-forest-64", run: magicRow(young, forest(64), "young(n16, S)", magic.Basic, true)},
		// E16 ablations through the root Engine: WithStrategy, WithoutIndexes.
		{id: "e16", name: "ancestor-dag256-seminaive", run: engineRow(workAncestorRules, dag)},
		{id: "e16", name: "ancestor-dag256-naive", run: engineRow(workAncestorRules, dag, WithStrategy(Naive))},
		{id: "e16", name: "ancestor-dag256-unindexed", run: engineRow(workAncestorRules, dag, WithoutIndexes())},
		// Composite-index joins: the triangle rule's third literal probes e
		// on both columns; the wide join probes wide on its leading pair.
		{id: "j1", name: "triangle-join-n96", run: evalRow(
			parse(`triangle(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z).`),
			func() *store.DB { return workload.Graph(96, 4, 13) }, semi)},
		{id: "j2", name: "wide-selective-join-4096", run: evalRow(wideGood, wide, semi)},
		{id: "j2", name: "wide-srcbad-cost-4096", run: evalRow(wideBad, wide, semi)},
		{id: "j2", name: "wide-srcbad-static-4096", run: evalRow(wideBad, wide, eval.Options{NoReorder: true})},
		{id: "q1", name: "anc-point-prepared-chain256", run: pointRow(workAncestorRules, chain(256), "ancestor", q1, true)},
		{id: "q1", name: "anc-point-unprepared-chain256", run: pointRow(workAncestorRules, chain(256), "ancestor", q1, false)},
		{id: "q2", name: "sg-point-prepared-tree9", run: pointRow(workSgRules, tree9, "sg", q2, true)},
		{id: "q2", name: "sg-point-unprepared-tree9", run: pointRow(workSgRules, tree9, "sg", q2, false)},
		// Update streams: each incr row is paired with the recompute row of
		// the same stream.
		{id: "u1", name: "update-trickle-incr-chain128", run: incrRow(anc, trickle(128))},
		{id: "u1", name: "update-trickle-recompute-chain128", run: recomputeRow(anc, trickle(128))},
		{id: "u1", name: "update-trickle-incr-chain256", slow: true, run: incrRow(anc, trickle(256))},
		{id: "u1", name: "update-trickle-recompute-chain256", slow: true, run: recomputeRow(anc, trickle(256))},
		{id: "u2", name: "update-mixed-incr-chain128", run: incrRow(anc, mixed)},
		{id: "u2", name: "update-mixed-recompute-chain128", run: recomputeRow(anc, mixed)},
		{id: "u3", name: "update-churn-incr-sp64x8", run: incrRow(churn, churnSP)},
		{id: "u3", name: "update-churn-recompute-sp64x8", run: recomputeRow(churn, churnSP)},
		// Engine loads after a read: each engine row is paired with the
		// recompute row of the same stream (the trickle's is u1's).
		{id: "u4", name: "engine-trickle-chain128", run: loadRow(workAncestorRules, trickle(128), 1, "", false)},
		{id: "u4", name: "engine-young-tree6", run: loadRow(workYoungRules, leafAttaches(6, 16), 1, "", false)},
		{id: "u4", name: "engine-young-recompute-tree6", run: recomputeRow(young, leafAttaches(6, 16))},
		{id: "u4", name: "engine-excl-chain24", run: loadRow(workExclRules, exclTrickle, 1, "", false)},
		{id: "u4", name: "engine-excl-recompute-chain24", run: recomputeRow(excl, exclTrickle)},
		// Four loads per Run are one transaction; a WithMagic engine's loads
		// after a Run cost nothing until a read needs the model.
		{id: "u4", name: "engine-batch4-chain128", run: loadRow(workAncestorRules, trickle(128), 4, "", false)},
		{id: "u4", name: "engine-batch4-recompute-chain128", run: recomputeRow(anc, batched(trickle(128), 4))},
		{id: "u4", name: "engine-magic-chain128", run: loadRow(workAncestorRules, trickle(128), 1, "ancestor(n120, W)", false, WithMagic(true))},
		{id: "u4", name: "engine-magic-split-chain128", run: loadRow(workAncestorRules, trickle(128), 1, "ancestor(n120, W)", true, WithMagic(true))},
	}
}

const workHeader = "# id name iterations firings derived index_hits full_scans deleted_overestimate rederived regrouped_classes plans_reordered cache_hits model"

func (w work) fields() []int {
	return []int{w.Iterations, w.Firings, w.Derived, w.IndexHits, w.FullScans,
		w.DeletedOverestimate, w.Rederived, w.RegroupedClasses, w.PlansReordered, w.CacheHits, w.model}
}

func formatWork(r workRow, w work) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-34s", r.id, r.name)
	for _, v := range w.fields() {
		fmt.Fprintf(&b, " %8d", v)
	}
	return b.String()
}

// readWorkGolden returns the golden lines keyed by "id name".
func readWorkGolden(t *testing.T) map[string]string {
	data, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "#" {
			continue
		}
		lines[f[0]+" "+f[1]] = line
	}
	return lines
}

func TestWorkCounts(t *testing.T) {
	rows := workRows(t)
	var golden map[string]string
	if !*update {
		golden = readWorkGolden(t)
		if len(golden) != len(rows) {
			t.Errorf("%s holds %d rows, the test runs %d", workGolden, len(golden), len(rows))
		}
	}
	got := make([]*work, len(rows))
	t.Run("rows", func(t *testing.T) {
		for i, r := range rows {
			if r.slow && testing.Short() {
				continue
			}
			t.Run(r.id+"/"+r.name, func(t *testing.T) {
				t.Parallel()
				w, err := r.run()
				if err != nil {
					t.Fatal(err)
				}
				// A function of program and input only: a second run in the
				// same process, after every other row has touched the shared
				// intern tables, reports the same work.
				again, err := r.run()
				if err != nil {
					t.Fatal(err)
				}
				if again != w {
					t.Fatalf("two runs differ:\n%s\n%s", formatWork(r, w), formatWork(r, again))
				}
				got[i] = &w
				if line := formatWork(r, w); golden != nil && golden[r.key()] != line {
					t.Errorf("work changed (go test -run TestWorkCounts -update . re-pins it on purpose):\n got %s\nwant %s", line, golden[r.key()])
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	row := func(key string) work {
		t.Helper()
		for i, r := range rows {
			if r.key() == key && got[i] != nil {
				return *got[i]
			}
		}
		t.Fatalf("no row %q", key)
		return work{}
	}
	sameModel := func(keys ...string) {
		t.Helper()
		for _, k := range keys[1:] {
			if a, b := row(keys[0]).model, row(k).model; a != b {
				t.Errorf("%s computes %d, %s computes %d: want equal", keys[0], a, k, b)
			}
		}
	}
	less := func(what string, a, b int) {
		t.Helper()
		if a >= b {
			t.Errorf("%s: %d is not below %d", what, a, b)
		}
	}

	// E1/E16: semi-naive computes the same model with fewer firings.
	sameModel("e1 ancestor-naive-chain-64", "e1 ancestor-seminaive-chain-64")
	less("E1 semi-naive vs naive firings", row("e1 ancestor-seminaive-chain-64").Firings, row("e1 ancestor-naive-chain-64").Firings)
	sameModel("e16 ancestor-dag256-seminaive", "e16 ancestor-dag256-naive", "e16 ancestor-dag256-unindexed")
	less("E16 semi-naive vs naive firings", row("e16 ancestor-dag256-seminaive").Firings, row("e16 ancestor-dag256-naive").Firings)
	// WithoutIndexes: no probe is answered by an index, every one scans.
	if w := row("e16 ancestor-dag256-unindexed"); w.IndexHits != 0 {
		t.Errorf("WithoutIndexes still counts %d index hits", w.IndexHits)
	}
	less("E16 indexed vs unindexed full scans", row("e16 ancestor-dag256-seminaive").FullScans, row("e16 ancestor-dag256-unindexed").FullScans)
	// E11: the negation-free program derives more (the grouping detour).
	less("E11 original vs positive derived", row("e11 neg-elim-original").Derived, row("e11 neg-elim-positive").Derived)
	// E15 (§6): same answers, less work than the whole program, and work
	// independent of the database size.
	sameModel("e15 young-plain-forest-16", "e15 young-magic-forest-16", "e15 young-supplementary-forest-16")
	sameModel("e15 young-plain-forest-64", "e15 young-magic-forest-64")
	less("E15 magic vs plain derived (16 families)", row("e15 young-magic-forest-16").Derived, row("e15 young-plain-forest-16").Derived)
	less("E15 supplementary vs plain derived", row("e15 young-supplementary-forest-16").Derived, row("e15 young-plain-forest-16").Derived)
	less("E15 plain derived grows with the database", row("e15 young-plain-forest-16").Derived, row("e15 young-plain-forest-64").Derived)
	if a, b := row("e15 young-magic-forest-16").Derived, row("e15 young-magic-forest-64").Derived; a != b {
		t.Errorf("E15 magic derived depends on database size: %d at 16 families, %d at 64", a, b)
	}
	// j2: the cost planner reorders the source-bad rule and probes from the
	// 48-row side; the static order scans all 4096 wide rows.
	sameModel("j2 wide-selective-join-4096", "j2 wide-srcbad-cost-4096", "j2 wide-srcbad-static-4096")
	if w := row("j2 wide-srcbad-cost-4096"); w.PlansReordered == 0 {
		t.Error("j2: the cost planner did not reorder the source-bad rule")
	}
	if cost, good := row("j2 wide-srcbad-cost-4096"), row("j2 wide-selective-join-4096"); cost.IndexHits != good.IndexHits || cost.FullScans != good.FullScans {
		t.Errorf("j2: reordered plan probes %d/%d, the good source order %d/%d", cost.IndexHits, cost.FullScans, good.IndexHits, good.FullScans)
	}
	less("j2 cost vs static index probes", row("j2 wide-srcbad-cost-4096").IndexHits, row("j2 wide-srcbad-static-4096").IndexHits)
	// q*: a prepared lookup in steady state is a cache hit and evaluates
	// nothing; both sides return the same rows.
	for _, q := range [][2]string{
		{"q1 anc-point-prepared-chain256", "q1 anc-point-unprepared-chain256"},
		{"q2 sg-point-prepared-tree9", "q2 sg-point-unprepared-tree9"},
	} {
		sameModel(q[0], q[1])
		if w := row(q[0]); w.CacheHits != 8 || w.Derived != 0 {
			t.Errorf("%s: %d cache hits, %d derived; want 8 and 0", q[0], w.CacheHits, w.Derived)
		}
		if w := row(q[1]); w.CacheHits != 0 || w.Derived == 0 {
			t.Errorf("%s: %d cache hits, %d derived; want 0 and some", q[1], w.CacheHits, w.Derived)
		}
	}
	// u1 only ever inserts, so maintenance derives every IDB fact of the
	// final model exactly once: its derived count is the initial
	// materialization's plus what each transaction added, never a fact twice
	// — and the "deriving less" comparison below is between real counts.
	for _, n := range []int{128, 256} {
		if n == 256 && testing.Short() {
			continue
		}
		edb, txs := workload.TrickleInserts(n, 32)
		w := row(fmt.Sprintf("u1 update-trickle-incr-chain%d", n))
		if want := w.model - (edb.Len() + len(txs)); w.Derived != want {
			t.Errorf("u1 chain%d: maintenance derived %d facts, the model holds %d derived ones", n, w.Derived, want)
		}
	}
	// u*: maintenance reaches the model recomputation reaches, deriving less.
	for _, u := range []string{"u1 update-trickle-%s-chain128", "u1 update-trickle-%s-chain256", "u2 update-mixed-%s-chain128", "u3 update-churn-%s-sp64x8"} {
		if testing.Short() && strings.HasSuffix(u, "chain256") {
			continue
		}
		inc, rec := fmt.Sprintf(u, "incr"), fmt.Sprintf(u, "recompute")
		sameModel(inc, rec)
		less(inc+" vs recompute derived", row(inc).Derived, row(rec).Derived)
	}
	// u4: an engine's loads after a read reach the model recomputation
	// reaches, firing no more; on the trickle they are u1's transactions.
	for _, u := range [][2]string{
		{"u4 engine-trickle-chain128", "u1 update-trickle-recompute-chain128"},
		{"u4 engine-young-tree6", "u4 engine-young-recompute-tree6"},
		{"u4 engine-excl-chain24", "u4 engine-excl-recompute-chain24"},
		{"u4 engine-batch4-chain128", "u4 engine-batch4-recompute-chain128"},
		{"u4 engine-magic-chain128", "u4 engine-magic-split-chain128"},
	} {
		sameModel(u[0], u[1])
		if a, b := row(u[0]).Firings, row(u[1]).Firings; a > b {
			t.Errorf("%s fires %d rules, its recompute twin %d", u[0], a, b)
		}
	}
	if a, b := row("u4 engine-trickle-chain128"), row("u1 update-trickle-incr-chain128"); a != b {
		t.Errorf("the engine's loads count %v, the view's transactions %v", a.fields(), b.fields())
	}
	// A WithMagic engine's loads after a Run fire nothing: its queries never
	// read the model.  (Index and plan counters differ: a Run's model shares
	// the EDB's relations and the indexes it builds on them, which the split
	// twin's querying engine lacks.)
	if a, b := row("u4 engine-magic-chain128"), row("u4 engine-magic-split-chain128"); a.Firings != b.Firings || a.Derived != b.Derived {
		t.Errorf("a WithMagic engine's loads after a Run count %v, without its model %v", a.fields(), b.fields())
	}

	if *update && !t.Failed() {
		var b bytes.Buffer
		fmt.Fprintln(&b, workHeader)
		for i, r := range rows {
			if got[i] == nil {
				t.Fatalf("-update needs every row; %s did not run (drop -short)", r.key())
			}
			fmt.Fprintln(&b, formatWork(r, *got[i]))
		}
		if err := os.WriteFile(workGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
