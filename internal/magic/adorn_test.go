package magic

import (
	"strings"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// AllFree returns the all-free adornment of length n.
func AllFree(n int) Adornment { return Adornment(strings.Repeat("f", n)) }

func TestAdornQuery(t *testing.T) {
	cases := map[string]Adornment{
		"p(a, X)":       "bf",
		"p(X, Y)":       "ff",
		"p(a, b)":       "bb",
		"p({1, 2}, X)":  "bf",
		"p(f(a), X, b)": "bfb",
	}
	for src, want := range cases {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := AdornQuery(q.Body[0]); got != want {
			t.Errorf("AdornQuery(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestAdornmentBound(t *testing.T) {
	a := Adornment("bf")
	if !a.Bound(0) || a.Bound(1) || a.Bound(5) {
		t.Error("Bound wrong")
	}
	if AllFree(3) != "fff" {
		t.Errorf("AllFree = %s", AllFree(3))
	}
}

func TestAdornedNames(t *testing.T) {
	if got := adornedName("p", "bf"); got != "p__bf" {
		t.Errorf("adornedName = %s", got)
	}
	if got := adornedName("q", ""); got != "q__0" {
		t.Errorf("0-ary adornedName = %s", got)
	}
	if got := magicName("p", "bf"); got != "magic__p__bf" {
		t.Errorf("magicName = %s", got)
	}
}

func TestAdornZeroAryQueryPred(t *testing.T) {
	p := parser.MustParseProgram(`
		ok <- e(X), f(X).
		e(1). f(1).
	`)
	q, err := parser.ParseQuery("ok")
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Adorn(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if ap.QueryAdorn != "" {
		t.Errorf("0-ary adornment = %q", ap.QueryAdorn)
	}
	rw, err := Rewrite(ap)
	if err != nil {
		t.Fatal(err)
	}
	if rw.AnswerPred != "ok__0" {
		t.Errorf("answer pred = %s", rw.AnswerPred)
	}
	res, err := answer(p, store.NewDB(), q, eval.Options{}, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Errorf("0-ary query solutions = %v", res.Solutions)
	}
}

func TestAdornMultipleAdornmentsSamePred(t *testing.T) {
	// t is reached both bound-free (from the query) and free-bound (from
	// the flipped rule): two adorned versions must be generated.
	p := parser.MustParseProgram(`
		t(X, Y) <- e(X, Y).
		t(X, Y) <- e(X, Z), t(Z, Y).
		top(X, Y) <- t(X, Y), t(Y, X).
		e(a, b). e(b, a).
	`)
	q, _ := parser.ParseQuery("top(a, W)")
	ap, err := Adorn(p, q)
	if err != nil {
		t.Fatal(err)
	}
	adorns := map[Adornment]bool{}
	for _, ar := range ap.Rules {
		if ar.Rule.Head.Pred == "t" {
			adorns[ar.Head] = true
		}
	}
	if len(adorns) < 1 {
		t.Fatalf("adornments for t = %v", adorns)
	}
	res, err := answer(p, store.NewDB(), q, eval.Options{}, Basic)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline(p, q, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(res.Solutions, base) {
		t.Errorf("multi-adornment answers differ: %v vs %v", res.Solutions, base)
	}
}

func TestAdornedRuleString(t *testing.T) {
	p := parser.MustParseProgram(`
		anc(X, Y) <- par(X, Y), X /= Y.
		par(a, b).
	`)
	q, _ := parser.ParseQuery("anc(a, W)")
	ap, err := Adorn(p, q)
	if err != nil {
		t.Fatal(err)
	}
	s := ap.Rules[0].String()
	if s != "anc^bf(X, Y) <- par(X, Y), X /= Y." {
		t.Errorf("String = %q", s)
	}
}
