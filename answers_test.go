package ldl1

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
)

func answersEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(`
		edge(a, b). edge(a, c). edge(b, d).
		path(X, Y) <- edge(X, Y).
		path(X, Y) <- edge(X, Z), path(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAnswersVarsOrder(t *testing.T) {
	ans, err := answersEngine(t).Query("path(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Vars) != 2 || ans.Vars[0] != "X" || ans.Vars[1] != "Y" {
		t.Fatalf("Vars = %v", ans.Vars)
	}
	if ans.Len() != 4 {
		t.Fatalf("Len = %d: %s", ans.Len(), ans)
	}
}

func TestAnswersDeterministicOrder(t *testing.T) {
	e := answersEngine(t)
	first, err := e.Query("path(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := answersEngine(t).Query("path(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("non-deterministic answer order:\n%s\nvs\n%s", again, first)
		}
	}
	// Rows sorted by term order.
	lines := strings.Split(first.String(), "\n")
	if len(lines) != 3 || lines[0] != "W = b" || lines[1] != "W = c" || lines[2] != "W = d" {
		t.Fatalf("rows = %v", lines)
	}
}

func TestAnswersConjunctive(t *testing.T) {
	ans, err := answersEngine(t).Query("edge(a, M), path(M, N)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("answers = %s", ans)
	}
	if got := ans.String(); got != "M = b, N = d" {
		t.Fatalf("row = %q", got)
	}
}

func TestAnswersEmptyAndGround(t *testing.T) {
	e := answersEngine(t)
	no, err := e.Query("path(d, a)")
	if err != nil {
		t.Fatal(err)
	}
	if !no.Empty() || no.String() != "no" {
		t.Fatalf("no-answer rendering = %q", no)
	}
	yes, err := e.Query("path(a, d)")
	if err != nil {
		t.Fatal(err)
	}
	if yes.Empty() || yes.String() != "yes" {
		t.Fatalf("yes rendering = %q", yes)
	}
}

func TestAnswersSetValues(t *testing.T) {
	eng, err := New(`
		sp(s1, p2). sp(s1, p1).
		supplies(S, <P>) <- sp(S, P).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query("supplies(s1, Ps)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.String(); got != "Ps = {p1, p2}" {
		t.Fatalf("set answer = %q", got)
	}
}

// TestAnonymousVariablesAreNotColumns: "_" matches anything and is never an
// answer column, so rows are projected onto the named variables and
// deduplicated there — by Query, by Prepare+Exec and on a view, answered
// fresh and from the cache — and q(X, _) shares no cache entry or compiled
// form with q(X, Y).
func TestAnonymousVariablesAreNotColumns(t *testing.T) {
	const src = `
		p(a). p(b).
		q(a, c). q(a, d). q(b, c).
		r(X, Y) <- q(X, Y).
	`
	type target struct {
		name    string
		query   func(string) (*Answers, error)
		prepare func(string) (*PreparedQuery, error)
	}
	plain, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	magic, err := New(src, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	mv := mustView(t, src)
	targets := []target{{"plain", plain.Query, plain.Prepare}, {"magic", magic.Query, magic.Prepare}, {"view", mv.Query, mv.Prepare}}

	cases := []struct{ q, want string }{
		{"p(X), q(X, _)", "X = a\nX = b"},
		{"r(X, _)", "X = a\nX = b"},
		{"r(X, Y)", "X = a, Y = c\nX = a, Y = d\nX = b, Y = c"},
		{"r(_, Y)", "Y = c\nY = d"},
		{"q(X, _)", "X = a\nX = b"},
		{"r(_, _)", "yes"},
		{"r(a, _)", "yes"},
		{"r(d, _)", "no"},
	}
	for _, tg := range targets {
		for pass := 0; pass < 2; pass++ { // the second pass reads the cache
			for _, c := range cases {
				ans, err := tg.query(c.q)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := tg.prepare(c.q)
				if err != nil {
					t.Fatal(err)
				}
				exec := mustStr(t)(pq.Exec())
				if got := ans.String(); got != c.want || exec != c.want {
					t.Errorf("%s pass %d: %s = %q, Exec %q, want %q", tg.name, pass, c.q, got, exec, c.want)
				}
				for _, v := range ans.Vars {
					if strings.HasPrefix(v, "_") {
						t.Errorf("%s: %s has column %s", tg.name, c.q, v)
					}
				}
			}
			pq, err := tg.prepare("r(a, _)")
			if err != nil {
				t.Fatal(err)
			}
			if got := mustStr(t)(pq.Exec(Sym("b"))) + " " + mustStr(t)(pq.Exec(Sym("d"))); got != "yes no" {
				t.Errorf("%s: r(?, _) Exec b, d = %q, want \"yes no\"", tg.name, got)
			}
		}
	}
}

// TestCachedAnswerIsOneTable: the answer cache keeps a read's answer as one
// flat table — an answer of n one-column rows holds its n cells, with no
// more than an eighth of them spare, and no row headers — and two hits on
// one key read their rows in place from the same cells.
func TestCachedAnswerIsOneTable(t *testing.T) {
	for _, m := range []bool{false, true} {
		eng, err := New(treeProgram(7), WithMagic(m))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := eng.Prepare("a(n2, W)")
		if err != nil {
			t.Fatal(err)
		}
		first, err := pq.Exec() // fills the cache
		if err != nil {
			t.Fatal(err)
		}
		ent, hit := eng.cache.Get(qcache.Key{Pred: "a", Adorn: "bf", Consts: "n2"})
		if !hit || first.Len() != 126 {
			t.Fatalf("magic=%v: %d rows, cached: %v; want 126 rows, cached", m, first.Len(), hit)
		}
		n, tab := first.Len(), ent.Table
		if tab.Width != 1 || tab.N != n || len(tab.Cells) != n || cap(tab.Cells) > n+n/8 {
			t.Errorf("magic=%v: %d rows cached as width %d, %d rows, %d cells of capacity %d; want 1, %d, %d, at most %d",
				m, n, tab.Width, tab.N, len(tab.Cells), cap(tab.Cells), n, n, n+n/8)
		}
		a, b := mustAnswers(t, pq), mustAnswers(t, pq)
		for i := range n {
			if &a.Row(i)[0] != &tab.Cells[i] || &b.Row(i)[0] != &tab.Cells[i] {
				t.Fatalf("magic=%v: row %d of a hit is not read from the cached cells", m, i)
			}
		}
	}
}

// TestConcurrentHitsShareOneTable: goroutines hitting one cache entry each
// reorder their own rows and read the shared cells, while a load gives the
// derived predicate a fact, which makes the prepared handle's magic form
// stale; under -race a write to a cell, to another hit's rows or to the
// handle's form is a reported race.
func TestConcurrentHitsShareOneTable(t *testing.T) {
	eng, err := New(treeProgram(6), WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("a(n2, W)")
	if err != nil {
		t.Fatal(err)
	}
	before := mustAnswers(t, pq).String()
	after := before + "\nW = zz"
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				a, err := pq.Exec()
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := a.String(); got != before && got != after {
					errs <- got
					return
				}
				slices.Reverse(a.Rows())
			}
		}()
	}
	if err := eng.AddFacts("a(n2, zz)."); err != nil {
		t.Error(err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("a concurrent read answered %s, want %s or %s", e, before, after)
	}
	if got := mustAnswers(t, pq).String(); got != after {
		t.Errorf("after the load: %s, want %s", got, after)
	}
}

func mustAnswers(t *testing.T, pq *PreparedQuery) *Answers {
	t.Helper()
	a, err := pq.Exec()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestMagicReadsStoredFacts: facts of a derived predicate that a load or a
// transaction puts in the extensional database are part of the model, and
// a WithMagic engine's reads — through the memo of forms and through a
// handle prepared before the load alike — answer as a plain engine's do
// after a load, an assert and a retract.
func TestMagicReadsStoredFacts(t *testing.T) {
	src := "anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\npar(a, b).\n"
	queries := []string{"anc(z, W)", "anc(y, W)", "anc(X, w)", "anc(X, Y)"}
	var engs [2]*Engine
	var pqs [2][]*PreparedQuery
	for i, m := range []bool{false, true} {
		e, err := New(src, WithMagic(m))
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = e
		for _, q := range queries {
			pq, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			pqs[i] = append(pqs[i], pq)
			mustStr(t)(e.Query(q)) // memoizes the form and caches the answer
		}
	}
	steps := []struct {
		what  string
		write func(e *Engine) error
	}{
		{"load anc(z, w)", func(e *Engine) error { return e.AddFacts("anc(z, w).") }},
		{"assert par(y, z)", func(e *Engine) error { _, err := e.Assert("par(y, z)."); return err }},
		{"retract anc(z, w)", func(e *Engine) error { _, err := e.Retract("anc(z, w)."); return err }},
	}
	for _, s := range steps {
		for _, e := range engs {
			if err := s.write(e); err != nil {
				t.Fatalf("%s: %v", s.what, err)
			}
		}
		for j, q := range queries {
			plain := mustStr(t)(engs[0].Query(q))
			if got := mustStr(t)(engs[1].Query(q)); got != plain {
				t.Errorf("after %s, %s: magic %q, plain %q", s.what, q, got, plain)
			}
			if got := mustStr(t)(pqs[1][j].Exec()); got != plain {
				t.Errorf("after %s, %s prepared before: magic %q, plain %q", s.what, q, got, plain)
			}
		}
	}
	if got := mustStr(t)(engs[1].Query("anc(y, W)")); got != "W = z" {
		t.Errorf("anc(y, W) after the retract: %q, want W = z", got)
	}
}

// TestDistinctReadTableIsExact: a read of one positive literal whose
// arguments are distinct named variables and constants keeps one row per
// fact it reads, so it takes its row count from the store before it
// enumerates — the relation's length for a scan, the index bucket's for a
// probe — and lays its table out once, at its final size, on every reader.
// A repeated variable, and a constant at a column no index answers, keep
// the growing table and answer what eval.SolveLimitsCtx answers on the
// model.
func TestDistinctReadTableIsExact(t *testing.T) {
	src := treeProgram(6)
	plain, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	view, err := plain.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	magicEng, err := New(src, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := plain.Prepare("a(n1, W)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		read func() (*Answers, error)
	}{
		{"engine scan", func() (*Answers, error) { return plain.Query("p(X, Y)") }},
		{"engine probe", func() (*Answers, error) { return plain.Query("p(n1, W)") }},
		{"engine derived", func() (*Answers, error) { return plain.Query("a(n2, W)") }},
		{"view scan", func() (*Answers, error) { return view.Query("siblings(X, Y)") }},
		{"view derived", func() (*Answers, error) { return view.Query("a(W, n9)") }},
		{"prepared", func() (*Answers, error) { return pq.Exec(Sym("n3")) }},
		{"magic base", func() (*Answers, error) { return magicEng.Query("p(n1, W)") }},
		{"magic derived", func() (*Answers, error) { return magicEng.Query("a(n2, W)") }},
	} {
		a, err := c.read()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := len(a.t.Cells); a.Len() == 0 || n != a.Len()*a.t.Width || cap(a.t.Cells) != n {
			t.Errorf("%s: %d rows in %d cells of capacity %d, want rows and no spare", c.name, a.Len(), n, cap(a.t.Cells))
		}
	}

	var facts strings.Builder
	for i := range 40 {
		fmt.Fprintf(&facts, "r(k%d, k%d). ", i%5, i%3)
	}
	for _, opts := range [][]Option{nil, {WithoutIndexes()}} {
		eng, err := New(facts.String(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"r(X, X)", "r(X, k1)", "r(k2, X)"} {
			q, err := parser.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.SolveLimitsCtx(context.Background(), q.Body, m.DB(), eval.SolveLimits{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := eng.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Rows(); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
				t.Errorf("indexes %v, %s: %v, want %v", opts == nil, src, got, want)
			}
			if n := len(a.t.Cells); cap(a.t.Cells) > n+n/8 {
				t.Errorf("indexes %v, %s: %d cells of capacity %d, more than an eighth spare", opts == nil, src, n, cap(a.t.Cells))
			}
		}
	}
}
