package eval

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// TestSolveRows checks Solve's answer table against brute force on
// generated databases and bodies — joins that reach one row many times,
// repeated variables, ground arguments, anonymous variables, a builtin:
// the rows are the distinct projections of the solutions onto the named
// variables, strictly increasing under CompareRows, and MaxSolutions
// counts rows, not the solutions that repeat one.
func TestSolveRows(t *testing.T) {
	if CompareRows([]term.Term{nil, term.Int(9)}, []term.Term{term.Int(1), nil}) >= 0 {
		t.Fatal("an unbound column must sort before a bound one")
	}
	rng := rand.New(rand.NewSource(23))
	consts := []term.Term{term.Int(1), term.Int(2), term.Int(3)}
	dups := 0
	for trial := 0; trial < 400; trial++ {
		db := store.NewDB()
		rels := map[string][]*term.Fact{}
		for _, pred := range []string{"e", "f"} {
			for _, a := range consts {
				for _, b := range consts {
					if rng.Intn(2) == 0 {
						f := term.NewFact(pred, a, b)
						db.Insert(f)
						rels[pred] = append(rels[pred], f)
					}
				}
			}
		}
		var lits, named []string
		for i := 1 + rng.Intn(3); i > 0; i-- {
			args := make([]string, 2)
			for j := range args {
				switch rng.Intn(5) {
				case 0:
					args[j] = "_"
				case 1:
					args[j] = fmt.Sprint(1 + rng.Intn(3))
				default:
					args[j] = string("XYZ"[rng.Intn(3)])
					named = append(named, args[j])
				}
			}
			lits = append(lits, fmt.Sprintf("%c(%s, %s)", "ef"[rng.Intn(2)], args[0], args[1]))
		}
		if len(named) > 0 && rng.Intn(3) == 0 {
			lits = append(lits, named[rng.Intn(len(named))]+" < "+append(named, "2")[rng.Intn(len(named)+1)])
		}
		src := strings.Join(lits, ", ")
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := SolveLimitsCtx(context.Background(), q.Body, db, SolveLimits{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, solutions := bruteRows(q.Body, rels, Columns(q.Body))
		if solutions > len(want) {
			dups++
		}
		got := map[string]bool{}
		for i, row := range rows {
			got[fmt.Sprint(row)] = true
			if i > 0 && CompareRows(rows[i-1], row) >= 0 {
				t.Fatalf("%s: row %d %v does not follow %v", src, i, row, rows[i-1])
			}
		}
		if len(rows) != len(want) || !maps.Equal(got, want) {
			t.Fatalf("%s: rows %v, brute force %v", src, rows, want)
		}
		if n := len(rows); n > 1 {
			if again, err := SolveLimitsCtx(nil, q.Body, db, SolveLimits{MaxSolutions: n}); err != nil || len(again) != n {
				t.Fatalf("%s: MaxSolutions %d with %d rows: %d rows, %v", src, n, n, len(again), err)
			}
			var lim *lderr.LimitError
			if _, err := SolveLimitsCtx(nil, q.Body, db, SolveLimits{MaxSolutions: n - 1}); !errors.As(err, &lim) {
				t.Fatalf("%s: MaxSolutions %d with %d rows: %v, want a LimitError", src, n-1, n, err)
			}
		}
	}
	if dups < 40 {
		t.Errorf("only %d bodies reached a row twice: the generator no longer exercises deduplication", dups)
	}
}

// bruteRows enumerates every combination of one fact per database literal of
// body, keeps those that bind each variable consistently and pass body's
// '<' literals, and returns their distinct projections onto cols, rendered,
// and how many combinations passed.
func bruteRows(body []ast.Literal, rels map[string][]*term.Fact, cols []term.Var) (map[string]bool, int) {
	rows, solutions := map[string]bool{}, 0
	var walk func(i int, env map[term.Var]term.Term)
	walk = func(i int, env map[term.Var]term.Term) {
		if i == len(body) {
			solutions++
			row := make([]term.Term, len(cols))
			for k, v := range cols {
				row[k] = env[v]
			}
			rows[fmt.Sprint(row)] = true
			return
		}
		l := body[i]
		val := func(a term.Term) term.Term {
			if v, ok := a.(term.Var); ok {
				return env[v]
			}
			return a
		}
		if l.Pred == "<" {
			if term.Compare(val(l.Args[0]), val(l.Args[1])) < 0 {
				walk(i+1, env)
			}
			return
		}
		for _, f := range rels[l.Pred] {
			next, ok := maps.Clone(env), true
			for j, a := range l.Args {
				v, isVar := a.(term.Var)
				if b, bound := next[v]; isVar && !bound {
					next[v] = f.Args[j]
				} else if isVar {
					ok = ok && term.Equal(b, f.Args[j])
				} else {
					ok = ok && term.Equal(a, f.Args[j])
				}
			}
			if ok {
				walk(i+1, next)
			}
		}
	}
	walk(0, map[term.Var]term.Term{})
	return rows, solutions
}

// TestQueryParameters: the ground arguments of a one-literal query are
// parameters, bound per Solve and never answer columns — nil binds the
// query's own, and each is evaluated as a constant column of a body literal
// is: 1+1 selects the facts of 2, 1/0 (outside U) selects none.  Every
// constant plans through the one shape: after the first Solve, no further
// plan is compiled.
func TestQueryParameters(t *testing.T) {
	db := store.NewDB()
	for _, f := range []string{"e(2, x)", "e(2, y)", "e(3, z)"} {
		q, err := parser.ParseQuery(f)
		if err != nil {
			t.Fatal(err)
		}
		db.Insert(term.NewFact("e", q.Body[0].Args...))
	}
	pq, err := parser.ParseQuery("e(3, X)")
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(pq.Body)
	solve := func(args ...term.Term) string {
		rows, err := q.Solve(context.Background(), db, args, SolveLimits{})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	if got := solve(); got != "[[z]]" {
		t.Errorf("e(3, X) = %s, want [[z]]", got)
	}
	before := plansCompiled.Load()
	if got := solve(term.NewCompound("+", term.Int(1), term.Int(1))); got != "[[x] [y]]" {
		t.Errorf("e(1+1, X) = %s, want [[x] [y]]", got)
	}
	if got := solve(term.NewCompound("/", term.Int(1), term.Int(0))); got != "[]" {
		t.Errorf("e(1/0, X) = %s, want []", got)
	}
	if n := plansCompiled.Load() - before; n != 0 {
		t.Errorf("%d plans compiled for a new constant, want 0", n)
	}
	if _, err := q.Solve(context.Background(), db, []term.Term{term.Int(2), term.Int(3)}, SolveLimits{}); err == nil {
		t.Error("two arguments for one parameter: no error")
	}
}
