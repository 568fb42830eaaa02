package ldl1

import (
	"strings"
	"testing"
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
