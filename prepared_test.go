package ldl1

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// prepProg has a recursive predicate (cone {anc, par}) and an unrelated
// one (cone {unrelated, other}) so invalidation tests can distinguish
// in-cone from out-of-cone updates.
const prepProg = `
	anc(X, Y) <- par(X, Y).
	anc(X, Y) <- par(X, Z), anc(Z, Y).
	unrelated(X) <- other(X).
	par(a, b). par(b, c). par(c, d). par(b, e).
	other(u1).
`

func mustStr(t *testing.T) func(*Answers, error) string {
	return func(a *Answers, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a.String()
	}
}

// mustModel returns e's whole model, which Run reads, failing t on an error.
func mustModel(t *testing.T, e *Engine) *Model {
	t.Helper()
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPreparedExecOracle pins the core equivalence: for every constant,
// Prepare+Exec on a magic engine, a fresh magic Query, and a full bottom-up
// Query all return the same answers — including repeated Execs that hit the
// answer cache. Evaluation runs on one goroutine; the subtest keeps the
// name it had when the oracle also swept 2 and 4 workers.
func TestPreparedExecOracle(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		eng, err := New(prepProg, WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("anc(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		if pq.NumArgs() != 1 {
			t.Fatalf("NumArgs = %d, want 1", pq.NumArgs())
		}
		for _, c := range []string{"a", "b", "c", "d", "nobody"} {
			got := mustStr(t)(pq.Exec(Sym(c)))
			again := mustStr(t)(pq.Exec(Sym(c))) // cache hit path
			fresh, err := New(prepProg, WithMagic(true))
			if err != nil {
				t.Fatal(err)
			}
			magic := mustStr(t)(fresh.Query(fmt.Sprintf("anc(%s, W)", c)))
			plain, err := New(prepProg)
			if err != nil {
				t.Fatal(err)
			}
			full := mustStr(t)(plain.Query(fmt.Sprintf("anc(%s, W)", c)))
			if got != magic || got != full || got != again {
				t.Errorf("anc(%s, W): exec=%q reexec=%q magic=%q full=%q", c, got, again, magic, full)
			}
		}
	})
}

// agreeProg extends prepProg with grouping, negation, a compound head and a
// cycle, so every query shape of TestReadPathsAgree has non-trivial answers,
// and with interpreted body arguments: arithmetic and set patterns that only
// match once other literals bind their variables (b is smaller than a, so
// the cost model would like to scan it first), alone and under negation.
const agreeProg = prepProg + `
	par(loop, loop).
	kids(X, <Y>) <- par(X, Y).
	haspar(X) <- par(Y, X).
	root(X) <- par(X, Y), ~haspar(X).
	boxed(box(X), Y) <- anc(X, Y).
	a(1). a(5). a(7). b(2).
	q(X) <- a(X), b(X + 1).
	t(c5). s(c5, {c5}). e1(c5, c5).
	r(X) <- t(X), s(X, {X}).
	h(X) <- s(X, T), T = {Y}, e1(X, Y).
	k(X) <- e1(X, Y), s(X, T), T = {Y}.
	g(X, <Y>) <- e0(X, Y).
	g2(X, S) <- e0(X, Y), S = {Y}.
	ng(X) <- e1(X, Y), ~g(X, {Y}).
	ng2(X) <- e1(X, Y), ~g2(X, {Y}).
	ng3(X) <- e1(X, Y), T = {Y}, ~g(X, T).
`

// TestReadPathsAgree is the Theorem-1 agreement table: an admissible
// program has one minimal model, so every way of asking the same query —
// engine kind × entry point — must render the same answers as a fresh
// bottom-up engine over the same facts, before and after an in-cone and an
// out-of-cone update.  Every case keeps two live handles of the same
// (predicate, adornment) spelled with different variable names and
// constants: neither may inherit the other's.
func TestReadPathsAgree(t *testing.T) {
	cases := []struct {
		name string
		q    string   // the query, also prepared as written
		twin string   // same shape, other constants and variable names
		args []string // q's ground arguments, bound into twin's handle
	}{
		{"ground", "anc(a, d)", "anc(c, b)", []string{"a", "d"}},
		{"one free var", "anc(b, W)", "anc(a, Out)", []string{"b"}},
		{"all free", "anc(X, Y)", "anc(From, To)", nil},
		{"repeated variable", "anc(X, X)", "anc(Same, Same)", nil},
		{"negated literal", "~anc(d, a)", "~anc(a, d)", []string{"d", "a"}},
		{"two-literal join", "par(a, M), anc(M, N)", "par(b, K), anc(K, L)", nil},
		{"ground set argument", "kids(P, {c, e})", "kids(Who, {b})", []string{"{e, c}"}},
		{"ground compound argument", "boxed(box(b), W)", "boxed(box(a), Out)", []string{"box(b)"}},
		{"base relation", "par(b, C)", "par(a, Child)", []string{"b"}},
		{"stratified negation", "root(R)", "root(Top)", nil},
		{"arithmetic argument", "q(X)", "q(N)", nil},
		{"arithmetic argument bound", "q(1)", "q(5)", []string{"1"}},
		{"set pattern argument", "r(X)", "r(Who)", nil},
		{"set pattern test", "h(X)", "h(Who)", nil},
		{"set pattern test reordered", "k(X)", "k(Who)", nil},
		{"negated set pattern", "ng(X)", "ng(Who)", nil},
		{"negated set pattern, no grouping", "ng2(X)", "ng2(Who)", nil},
		{"negated set variable", "ng3(X)", "ng3(Who)", nil},
	}
	type target struct {
		name    string
		query   func(string) (*Answers, error)
		prepare func(string) (*PreparedQuery, error)
		add     func(facts string) error
	}
	engine := func(name string, opts ...Option) target {
		eng, err := New(agreeProg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return target{name, eng.Query, eng.Prepare, eng.AddFacts}
	}
	mv := mustView(t, agreeProg)
	targets := []target{
		engine("plain"),
		engine("magic", WithMagic(true)),
		engine("supplementary", WithSupplementaryMagic()),
		{"view", mv.Query, mv.Prepare, func(facts string) error { _, err := mv.Assert(facts); return err }},
	}
	rows := func(a *Answers, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(a.Rows())
	}

	type handles struct{ own, twin *PreparedQuery }
	live := make([][]handles, len(targets))
	for i, tg := range targets {
		for _, c := range cases {
			own, err := tg.prepare(c.q)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", tg.name, c.q, err)
			}
			twin, err := tg.prepare(c.twin)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", tg.name, c.twin, err)
			}
			live[i] = append(live[i], handles{own, twin})
		}
	}

	// The interpreted-argument rules hold throughout; e0(c5, c5) gives
	// g and g2 the class {c5} that the negated set patterns test.
	always := []string{"q(1)", "r(c5)", "h(c5)", "k(c5)"}
	negated := []string{"ng(c5)", "ng2(c5)", "ng3(c5)"}
	facts := ""
	for _, phase := range []struct {
		name, add     string
		holds, absent []string
	}{
		{"initial", "", append(always, negated...), nil},
		{"in-cone update", "par(d, z). par(z, a).", append(always, negated...), nil},
		{"out-of-cone update", "other(u2).", append(always, negated...), nil},
		{"set-pattern update", "e0(c5, c5).", always, negated},
	} {
		facts += phase.add
		for _, tg := range targets {
			if err := tg.add(phase.add); err != nil {
				t.Fatal(err)
			}
		}
		oracle, err := New(agreeProg + facts)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle itself answers to internal/model and to the facts
		// the repro programs must (not) derive.
		m, err := oracle.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v, err := model.Check(parser.MustParseProgram(agreeProg+facts), m.DB()); err != nil || v != nil {
			t.Fatalf("%s: oracle model fails internal/model: %v, %v", phase.name, v, err)
		}
		for want, fs := range map[bool][]string{true: phase.holds, false: phase.absent} {
			for _, f := range fs {
				if in, err := m.Contains(f); err != nil || in != want {
					t.Errorf("%s: oracle Contains(%s) = %v, %v; want %v", phase.name, f, in, err, want)
				}
			}
		}
		for ci, c := range cases {
			want, wantTwin := mustStr(t)(oracle.Query(c.q)), mustStr(t)(oracle.Query(c.twin))
			// With no parameters to bind, Exec(args...) re-runs the twin.
			wantRows := rows(oracle.Query(c.twin))
			if c.args != nil {
				wantRows = rows(oracle.Query(c.q))
			}
			var args []Term
			for _, a := range c.args {
				args = append(args, MustParseTerm(a))
			}
			for ti, tg := range targets {
				h := live[ti][ci]
				for _, got := range []struct{ via, got, want string }{
					{"Query", mustStr(t)(tg.query(c.q)), want},
					{"Prepare+Exec()", mustStr(t)(h.own.Exec()), want},
					{"twin Prepare+Exec()", mustStr(t)(h.twin.Exec()), wantTwin},
					{"twin Prepare+Exec(args)", rows(h.twin.Exec(args...)), wantRows},
					{"Query again", mustStr(t)(tg.query(c.q)), want},
				} {
					if got.got != got.want {
						t.Errorf("%s / %s / %s / %s:\n got %q\nwant %q", phase.name, tg.name, c.name, got.via, got.got, got.want)
					}
				}
			}
		}
	}
}

// TestPreparedNoArgsRerunsOriginal checks that Exec() re-runs the constants
// baked into the prepared query text.
func TestPreparedNoArgsRerunsOriginal(t *testing.T) {
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(b, W)")
	if err != nil {
		t.Fatal(err)
	}
	got := mustStr(t)(pq.Exec())
	want := mustStr(t)(eng.Query("anc(b, W)"))
	if got != want {
		t.Errorf("Exec() = %q, Query = %q", got, want)
	}
}

// TestPreparedExecArgErrors covers the Exec argument contract: wrong arity
// and non-ground arguments fail without evaluating.
func TestPreparedExecArgErrors(t *testing.T) {
	eng, err := New(prepProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(Sym("a"), Sym("b")); err == nil {
		t.Error("Exec with too many args succeeded")
	}
	if _, err := pq.Exec(Variable("Z")); err == nil {
		t.Error("Exec with a non-ground arg succeeded")
	}
}

// TestPreparedCacheInvalidation pins the cache lifecycle against stats:
// repeat queries hit, an update inside the dependency cone evicts, an
// update outside the cone does not.
func TestPreparedCacheInvalidation(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // miss: fills the cache
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // hit
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits after repeat = %d, want 1", st.CacheHits)
	}

	// In-cone update: par is in anc's cone, so the entry is evicted and
	// the next Exec recomputes — and sees the new fact.
	mustAddFact(t, eng, NewFact("par", Sym("d"), Sym("z")))
	got := mustStr(t)(pq.Exec())
	if st.CacheHits != 1 {
		t.Errorf("CacheHits after in-cone update = %d, want 1 (miss expected)", st.CacheHits)
	}
	fresh, err := New(prepProg+"par(d, z).", WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	if want := mustStr(t)(fresh.Query("anc(a, W)")); got != want {
		t.Errorf("post-update answers = %q, want %q", got, want)
	}

	// Out-of-cone update: other feeds only unrelated, so the refilled
	// entry survives and the next Exec hits.
	mustAddFact(t, eng, NewFact("other", Sym("u2")))
	if _, err := pq.Exec(); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 2 {
		t.Errorf("CacheHits after out-of-cone update = %d, want 2 (hit expected)", st.CacheHits)
	}
}

// TestMaterializedAssertLeavesEngineCache pins the separation of the two
// caches: the view cloned the engine's EDB, so a transaction on the view
// cannot change the engine's answers and must not evict them, while the
// view's own entry for the same query is evicted.
func TestMaterializedAssertLeavesEngineCache(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("anc(a, W)"); err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.Query("anc(a, W)"); err != nil {
		t.Fatal(err)
	}
	if _, err := mat.Assert("par(d, z)."); err != nil {
		t.Fatal(err)
	}
	engAns := mustStr(t)(eng.Query("anc(a, W)"))
	if st.CacheHits != 1 {
		t.Errorf("CacheHits after view Assert = %d, want 1 (the engine's entry must survive)", st.CacheHits)
	}
	viewAns := mustStr(t)(mat.Query("anc(a, W)"))
	if hits, _, _, _ := mat.CacheCounters(); hits != 0 {
		t.Errorf("view cache hits after its own Assert = %d, want 0 (entry should be evicted)", hits)
	}
	if engAns == viewAns {
		t.Errorf("engine and view agree after a view-only Assert: %q", engAns)
	}
}

// TestQueryCacheSharedWithPlainQuery checks that plain Query and a prepared
// handle share the cache: the prepared Exec seeds it, the equivalent Query
// hits it.
func TestQueryCacheSharedWithPlainQuery(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(b, W)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(); err != nil { // seeds the cache
		t.Fatal(err)
	}
	// Different variable name, same shape and constants: must hit and
	// remap to the caller's variable.
	ans, err := eng.Query("anc(b, Out)")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	if len(ans.Vars) != 1 || ans.Vars[0] != "Out" {
		t.Errorf("Vars = %v, want [Out]", ans.Vars)
	}
	// Row values must match the prepared answers (names differ).
	var rows, prows []string
	for _, r := range ans.Rows() {
		rows = append(rows, r[0].String())
	}
	pans, err := pq.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pans.Rows() {
		prows = append(prows, r[0].String())
	}
	if fmt.Sprint(rows) != fmt.Sprint(prows) {
		t.Errorf("remapped rows %v != prepared rows %v", rows, prows)
	}
}

// TestRepeatedVariableQueryNotConfusedByCache: anc(X, X) and anc(X, Y)
// share the adornment "ff" but mean different things; the repeated-variable
// form must bypass the shared cache and stay correct in both orders.
func TestRepeatedVariableQueryNotConfusedByCache(t *testing.T) {
	src := prepProg + "par(loop, loop).\n"
	for _, order := range []string{"distinct-first", "repeated-first"} {
		eng, err := New(src, WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		queries := []string{"anc(X, Y)", "anc(X, X)"}
		if order == "repeated-first" {
			queries[0], queries[1] = queries[1], queries[0]
		}
		var byQuery = map[string]string{}
		for _, q := range queries {
			byQuery[q] = mustStr(t)(eng.Query(q))
		}
		plain, err := New(src)
		if err != nil {
			t.Fatal(err)
		}
		for q, got := range byQuery {
			if want := mustStr(t)(plain.Query(q)); got != want {
				t.Errorf("%s (%s): magic=%q full=%q", q, order, got, want)
			}
		}
	}
}

// TestCacheKeyTellsConstantsApart: an atom may hold the characters that
// separate the constants of a cache key, so Exec(p, 'q,a:r') and
// Exec('p,a:q', r) name different queries and must not share an entry.
func TestCacheKeyTellsConstantsApart(t *testing.T) {
	for _, magic := range []bool{false, true} {
		eng, err := New(`q(X, Y, Z) <- s(X, Y, Z).`, WithMagic(magic))
		if err != nil {
			t.Fatal(err)
		}
		mustAddFact(t, eng, NewFact("s", Sym("p"), Sym("q,a:r"), Sym("one")))
		mustAddFact(t, eng, NewFact("s", Sym("p,a:q"), Sym("r"), Sym("two")))
		pq, err := eng.Prepare("q(a, b, Z)")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			args []Term
			want string
		}{
			{[]Term{Sym("p"), Sym("q,a:r")}, "one"},
			{[]Term{Sym("p,a:q"), Sym("r")}, "two"},
		} {
			a, err := pq.Exec(c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != 1 || !Equal(a.Row(0)[0], Sym(c.want)) {
				t.Errorf("magic=%v Exec%v = %v, want Z = %s", magic, c.args, a, c.want)
			}
		}
	}
}

// TestAnswerValueSentBack: a constant built with a name the lexer would
// read as something else — a variable, two words, a number — comes back in
// an answer row as a term whose text parses to it, so passing that parsed
// value to Exec selects the same rows, on either read path.
func TestAnswerValueSentBack(t *testing.T) {
	for _, magic := range []bool{false, true} {
		eng, err := New(`q(K, V) <- p(K, V).`, WithMagic(magic))
		if err != nil {
			t.Fatal(err)
		}
		db := store.NewDB()
		for i, k := range []Term{Sym("X"), Sym("John Smith"), Sym("12"), Num(12), Sym("_"), Sym("not"), Sym("a"), Sym("X")} {
			db.Insert(NewFact("p", k, Num(int64(i))))
		}
		eng.AddDB(db)
		all, err := eng.Query("q(K, V)")
		if err != nil || all.Len() != 8 {
			t.Fatalf("q(K, V): %v, %v", err, all)
		}
		pq, err := eng.Prepare("q(k, V)")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range all.Rows() {
			arg, err := ParseTerm(row[0].String())
			if err != nil {
				t.Fatalf("magic=%v: answer %s does not parse: %v", magic, row[0], err)
			}
			got, err := pq.Exec(arg)
			if err != nil {
				t.Fatalf("magic=%v: Exec(%s): %v", magic, arg, err)
			}
			var want []string
			for _, r := range all.Rows() {
				if Equal(r[0], row[0]) {
					want = append(want, r[1].String())
				}
			}
			var vs []string
			for _, r := range got.Rows() {
				vs = append(vs, r[0].String())
			}
			if fmt.Sprint(vs) != fmt.Sprint(want) {
				t.Errorf("magic=%v: Exec(%s) = %v, want %v", magic, arg, vs, want)
			}
		}
	}
}

// TestWithoutQueryCache pins the opt-out: no hits ever accrue.
func TestWithoutQueryCache(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithMagic(true), WithStats(&st), WithoutQueryCache())
	if err != nil {
		t.Fatal(err)
	}
	want := mustStr(t)(eng.Query("anc(a, W)"))
	got := mustStr(t)(eng.Query("anc(a, W)"))
	if got != want {
		t.Errorf("answers differ across repeats: %q vs %q", got, want)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d with the cache disabled", st.CacheHits)
	}
}

// TestPreparedOptionParity: a prepared handle honors WithDeadline,
// WithLimit, and WithMemBudget exactly like QueryCtx — same taxonomy error
// on breach, success under a generous bound.
func TestPreparedOptionParity(t *testing.T) {
	divergent := `
		nat(z).
		nat(s(X)) <- nat(X).
		top(X) <- nat(X).
	`
	t.Run("deadline", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithDeadline(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pq.Exec(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("Exec: want ErrDeadlineExceeded, got %v", err)
		}
		if _, err := eng.QueryCtx(context.Background(), "top(W)"); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("QueryCtx: want ErrDeadlineExceeded, got %v", err)
		}
	})
	t.Run("limit", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithLimit(50))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		var le *LimitError
		if _, err := pq.Exec(); !errors.As(err, &le) {
			t.Errorf("Exec: want *LimitError, got %v", err)
		}
		if _, err := eng.Query("top(W)"); !errors.As(err, &le) {
			t.Errorf("Query: want *LimitError, got %v", err)
		}
	})
	t.Run("membudget", func(t *testing.T) {
		eng, err := New(divergent, WithMagic(true), WithMemBudget(1<<12))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("top(W)")
		if err != nil {
			t.Fatal(err)
		}
		var me *MemBudgetError
		if _, err := pq.Exec(); !errors.As(err, &me) {
			t.Errorf("Exec: want *MemBudgetError, got %v", err)
		}
		if _, err := eng.Query("top(W)"); !errors.As(err, &me) {
			t.Errorf("Query: want *MemBudgetError, got %v", err)
		}
	})
	t.Run("readopts", func(t *testing.T) {
		// ReadOpts bound an engine handle's read as they bound a view's:
		// the row cap on a miss, on a hit, and on an uncached shape.
		eng, err := New(prepProg+"par(loop, loop). par(l2, l2).", WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"anc(a, W)", "anc(a, W)", "anc(X, X)"} {
			pq, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var le *LimitError
			if _, err := pq.ExecOpts(context.Background(), ReadOpts{MaxRows: 1}); !errors.As(err, &le) || le.Limit != 1 {
				t.Errorf("%s MaxRows=1: want *LimitError{1}, got %v", q, err)
			}
			if _, err := pq.ExecOpts(context.Background(), ReadOpts{MaxRows: 100}); err != nil {
				t.Errorf("%s MaxRows=100: %v", q, err)
			}
		}
		pq, err := eng.Prepare("anc(b, W)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pq.ExecOpts(context.Background(), ReadOpts{Deadline: time.Nanosecond}); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("Deadline=1ns: want ErrDeadlineExceeded, got %v", err)
		}
		var me *MemBudgetError
		if _, err := pq.ExecOpts(context.Background(), ReadOpts{MemBudget: 16}); !errors.As(err, &me) {
			t.Errorf("MemBudget=16: want *MemBudgetError, got %v", err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		eng, err := New(prepProg, WithMagic(true))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("anc(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pq.ExecCtx(ctx); !errors.Is(err, ErrCanceled) {
			t.Errorf("ExecCtx: want ErrCanceled, got %v", err)
		}
		// A failed evaluation must not be cached: the next Exec succeeds
		// with real answers.
		got := mustStr(t)(pq.Exec())
		want := mustStr(t)(eng.Query("anc(a, W)"))
		if got != want {
			t.Errorf("answers after canceled Exec = %q, want %q", got, want)
		}
	})
}

// TestPreparedNonMagicEngine: Prepare works without WithMagic, answering
// from the memoized model with per-call constants.
func TestPreparedNonMagicEngine(t *testing.T) {
	eng, err := New(prepProg)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "b", "c"} {
		got := mustStr(t)(pq.Exec(Sym(c)))
		want := mustStr(t)(eng.Query(fmt.Sprintf("anc(%s, W)", c)))
		if got != want {
			t.Errorf("anc(%s, W): exec=%q query=%q", c, got, want)
		}
	}
}

// TestConcurrentExecAddFact exercises the read path under concurrent
// prepared executions, queries and EDB updates, on a magic and on a plain
// engine, each with a shared WithStats sink; run under -race.  Two
// goroutines query one shape with changing constants, so they compile its
// form into the reader's memo and take it from there side by side.  Every read
// must return answers consistent with some EDB state (in particular, never
// an error), the sink must have counted every read's work, and the final
// repeat must see all inserted facts.
func TestConcurrentExecAddFact(t *testing.T) {
	for _, magic := range []bool{true, false} {
		var st Stats
		eng, err := New(prepProg, WithMagic(magic), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("anc(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 5; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					var err error
					switch g {
					case 0:
						err = eng.AddFact(NewFact("par", Sym("d"), Sym(fmt.Sprintf("n%d", i))))
					case 1, 2:
						_, err = eng.Query(fmt.Sprintf("anc(%c, Out)", "abcd"[(g+i)%4]))
					default:
						_, err = pq.Exec()
					}
					if err != nil {
						t.Errorf("magic=%v: concurrent read or write: %v", magic, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if st.Derived == 0 || st.Iterations == 0 {
			t.Errorf("magic=%v: the shared sink counted nothing: %+v", magic, st)
		}
		got := mustStr(t)(pq.Exec())
		if again := mustStr(t)(pq.Exec()); again != got || st.CacheHits == 0 {
			t.Errorf("magic=%v: repeat Exec = %q after %q with %d cache hits", magic, again, got, st.CacheHits)
		}
		fresh, err := New(prepProg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			mustAddFact(t, fresh, NewFact("par", Sym("d"), Sym(fmt.Sprintf("n%d", i))))
		}
		if want := mustStr(t)(fresh.Query("anc(a, W)")); got != want {
			t.Errorf("magic=%v: final answers diverge:\n got %q\nwant %q", magic, got, want)
		}
	}
}

// TestEngineCostOrderingFullScans is the engine-level regression for the
// cost-based planner: a source order that forces a near-cartesian pass is
// repaired, with identical answers and strictly fewer full scans than the
// pinned static order.
func TestEngineCostOrderingFullScans(t *testing.T) {
	src := "h(A, B, P) <- big(P, X), small(A, B).\n"
	for i := 0; i < 200; i++ {
		src += fmt.Sprintf("big(p%d, x%d).\n", i, i)
	}
	for i := 0; i < 3; i++ {
		src += fmt.Sprintf("small(a%d, b%d).\n", i, i)
	}
	var scost, sstatic Stats
	cost, err := New(src, WithStats(&scost))
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(src, WithStats(&sstatic), WithoutReorder())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cost.Query("h(A, B, P)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := static.Query("h(A, B, P)")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("cost ordering changed the answers")
	}
	if a.Len() != 600 {
		t.Fatalf("answers = %d, want 600", a.Len())
	}
	if scost.PlansReordered == 0 {
		t.Error("cost engine reordered nothing")
	}
	if sstatic.PlansReordered != 0 {
		t.Errorf("WithoutReorder engine reordered %d plans", sstatic.PlansReordered)
	}
	if scost.FullScans >= sstatic.FullScans {
		t.Errorf("full scans: cost=%d static=%d", scost.FullScans, sstatic.FullScans)
	}
}

// TestArgumentEvaluation pins how a ground query argument is evaluated on
// every read path — a query, a prepared Exec of its own constants and one
// binding a new constant, on an engine and on a view, of a derived and of a
// base predicate: as a constant column of a body literal is, so a(1+1, X)
// answers as a(2, X), and a(1/0, X), whose argument lies outside U, answers
// no.  Under WithMagic a derived predicate's constant seeds the magic
// predicate, and one outside U is an error; so is a prepared argument
// outside U, on every path.
func TestArgumentEvaluation(t *testing.T) {
	const src = `
		a(X, Y) <- e(X, Y).
		e(2, x). e(2, y). e(3, z).
	`
	args := []struct {
		text string
		term Term
		want string // "": an error
	}{
		{"1+1", Func("+", Num(1), Num(1)), "X = x\nX = y"},
		{"1/0", Func("/", Num(1), Num(0)), "no"},
	}
	for _, withMagic := range []bool{false, true} {
		eng, err := New(src, WithMagic(withMagic))
		if err != nil {
			t.Fatal(err)
		}
		mv, err := eng.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		readers := []struct {
			name    string
			query   func(string) (*Answers, error)
			prepare func(string) (*PreparedQuery, error)
		}{{"engine", eng.Query, eng.Prepare}, {"view", mv.Query, mv.Prepare}}
		for _, r := range readers {
			for _, pred := range []string{"a", "e"} {
				for _, arg := range args {
					q := pred + "(" + arg.text + ", X)"
					exec := func(q string, args ...Term) (*Answers, error) {
						pq, err := r.prepare(q)
						if err != nil {
							return nil, err
						}
						return pq.Exec(args...)
					}
					for how, read := range map[string]func() (*Answers, error){
						"Query":     func() (*Answers, error) { return r.query(q) },
						"Exec":      func() (*Answers, error) { return exec(q) },
						"Exec(arg)": func() (*Answers, error) { return exec(pred+"(3, X)", arg.term) },
					} {
						want := arg.want
						if arg.text == "1/0" && (how == "Exec(arg)" || withMagic && r.name == "engine" && pred == "a") {
							want = ""
						}
						got, err := read()
						name := fmt.Sprintf("magic=%v %s %s %s", withMagic, r.name, how, q)
						switch {
						case want == "" && err == nil:
							t.Errorf("%s = %v, want an error", name, got)
						case want != "" && (err != nil || got.String() != want):
							t.Errorf("%s = %v, %v; want %q", name, got, err, want)
						}
					}
				}
			}
		}
	}
}
