package parser

import (
	"math"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/term"
)

func TestParseAncestor(t *testing.T) {
	src := `
		% the classical ancestor program (§1)
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(a, b).
	`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	if !p.Rules[2].IsFact() {
		t.Error("parent(a,b) should be a fact")
	}
	if got := p.Rules[1].String(); got != "ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y)." {
		t.Errorf("round trip = %q", got)
	}
}

func TestParseNegation(t *testing.T) {
	for _, src := range []string{
		"e(X, Y, Z) <- a(X, Y), not a(X, Z).",
		"e(X, Y, Z) <- a(X, Y), ~a(X, Z).",
		"e(X, Y, Z) <- a(X, Y), ¬a(X, Z).",
	} {
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !p.Rules[0].Body[1].Negated {
			t.Errorf("%s: second literal should be negated", src)
		}
		if p.IsPositive() {
			t.Errorf("%s: program should not be positive", src)
		}
	}
}

func TestParseGroupingHead(t *testing.T) {
	src := "part(P, <S>) <- p(P, S)."
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.IsGroupingRule() {
		t.Fatal("should be a grouping rule")
	}
	idx, inner := r.Head.GroupArg()
	if idx != 1 {
		t.Fatalf("group at arg %d", idx)
	}
	if v, ok := inner.(term.Var); !ok || v != "S" {
		t.Fatalf("group inner = %v", inner)
	}
	if err := ast.CheckWellFormed(p); err != nil {
		t.Fatal(err)
	}
}

func TestParseSets(t *testing.T) {
	tm, err := ParseTerm("{3, 1, 2, 1}")
	if err != nil {
		t.Fatal(err)
	}
	want := term.NewSet(term.Int(1), term.Int(2), term.Int(3))
	if !term.Equal(tm, want) {
		t.Fatalf("got %v want %v", tm, want)
	}
	// Nested set.
	tm, err = ParseTerm("{{1}, {}}")
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(tm, term.NewSet(term.NewSet(term.Int(1)), term.EmptySet)) {
		t.Fatalf("nested set = %v", tm)
	}
	// Non-ground enumerated sets become $set patterns.
	tm, err = ParseTerm("{X, Y}")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := tm.(*term.Compound)
	if !ok || c.Functor != "$set" || len(c.Args) != 2 {
		t.Fatalf("non-ground set = %v", tm)
	}
}

func TestParseArithmeticAndComparison(t *testing.T) {
	src := "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < 100."
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	last := p.Rules[0].Body[3]
	if last.Pred != "<" || last.Arity() != 2 {
		t.Fatalf("comparison literal = %v", last)
	}
	sum, ok := last.Args[0].(*term.Compound)
	if !ok || sum.Functor != "+" {
		t.Fatalf("lhs = %v", last.Args[0])
	}
	// Left associative: (Px+Py)+Pz.
	inner, ok := sum.Args[0].(*term.Compound)
	if !ok || inner.Functor != "+" {
		t.Fatalf("associativity wrong: %v", sum)
	}
	// Precedence: 1+2*3 parses as 1+(2*3).
	tm, err := ParseTerm("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	top := tm.(*term.Compound)
	if top.Functor != "+" {
		t.Fatalf("precedence wrong: %v", tm)
	}
	if r := top.Args[1].(*term.Compound); r.Functor != "*" {
		t.Fatalf("precedence wrong: %v", tm)
	}
}

func TestParseComparisonForms(t *testing.T) {
	for src, pred := range map[string]string{
		"r(X) <- q(X), X = 1.":   "=",
		"r(X) <- q(X), X /= 1.":  "/=",
		"r(X) <- q(X), X \\= 1.": "/=",
		"r(X) <- q(X), X != 1.":  "/=",
		"r(X) <- q(X), X <= 1.":  "<=",
		"r(X) <- q(X), X =< 1.":  "<=",
		"r(X) <- q(X), X >= 1.":  ">=",
		"r(X) <- q(X), X > 1.":   ">",
		"r(X) <- q(X), X < 1.":   "<",
	} {
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := p.Rules[0].Body[1].Pred; got != pred {
			t.Errorf("%s: pred = %q want %q", src, got, pred)
		}
	}
}

func TestParseQueries(t *testing.T) {
	unit, err := Parse(`
		young(X, <Y>) <- not a(X, Z), sg(X, Y), person(Z).
		?- young(john, S).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit.Queries) != 1 {
		t.Fatalf("queries = %v", unit.Queries)
	}
	q := unit.Queries[0]
	if q.Body[0].Pred != "young" || !term.Equal(q.Body[0].Args[0], term.Atom("john")) {
		t.Fatalf("query = %v", q)
	}
	if q.String() != "?- young(john, S)." {
		t.Errorf("query round trip = %q", q)
	}
	q2, err := ParseQuery("young(john, S)")
	if err != nil {
		t.Fatal(err)
	}
	if q2.String() != q.String() {
		t.Errorf("ParseQuery differs: %q vs %q", q2, q)
	}
}

func TestParseAnonymousVars(t *testing.T) {
	p, err := ParseProgram("r(X) <- q(X, _), s(_, X).")
	if err != nil {
		t.Fatal(err)
	}
	v1 := p.Rules[0].Body[0].Args[1].(term.Var)
	v2 := p.Rules[0].Body[1].Args[0].(term.Var)
	if v1 == v2 {
		t.Fatalf("anonymous variables not renamed apart: %v %v", v1, v2)
	}
}

func TestParseComplexHeadTerms(t *testing.T) {
	// §4.2 example heads.
	src := `out(T, <h(S, <D>)>) <- r(T, S, C, D).
		out2(tuple(T, S), <tp(C, <D>)>) <- r(T, S, C, D).`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Rules[0].Head
	g, ok := h.Args[1].(*term.Group)
	if !ok {
		t.Fatalf("arg1 = %v", h.Args[1])
	}
	inner, ok := g.Inner.(*term.Compound)
	if !ok || inner.Functor != "h" {
		t.Fatalf("inner = %v", g.Inner)
	}
	if _, ok := inner.Args[1].(*term.Group); !ok {
		t.Fatalf("nested group missing: %v", inner)
	}
	// Parenthesized multi-element head terms become tuple(...).
	p2, err := ParseProgram("o((T, S), <X>) <- r(T, S, X).")
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := p2.Rules[0].Head.Args[0].(*term.Compound)
	if !ok || tp.Functor != "tuple" || len(tp.Args) != 2 {
		t.Fatalf("tuple head term = %v", p2.Rules[0].Head.Args[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(X <- q(X).",
		"p(X) <- q(X)",       // missing dot
		"p(X) <- q(X,).",     // dangling comma
		"not p(X) <- q(X).",  // negated head
		"p(X) <- 3.",         // non-predicate literal
		`p("unterminated).`,  // bad string
		"p(X) <- q(X), r(X!", // stray char
		// Terms are not literals: arithmetic, negation, tuples, lists, sets.
		"0*(0).",
		"p(1). 1+2 <- p(X).",
		"p(1). q(X) <- p(X), X+1.",
		"p(1). -X <- p(X).",
		"(a, b).",
		"[a].",
		"p(1). {X} <- p(X).",
		"p(X) <- q(X), (r(X)).",
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestWellFormedViolations(t *testing.T) {
	cases := map[string]string{
		"p(<X>, <Y>) <- q(X, Y).":    "at most one grouping",
		"p(X) <- q(<X>).":            "not allowed in a rule body",
		"p(X, Y) <- q(X).":           "unsafe rule",
		"p(X) <- q(X), not r(X, Y).": "unsafe rule",
		"p(X).":                      "facts may not contain variables",
		"p(f(<X>)) <- q(X).":         "direct argument",
	}
	for src, want := range cases {
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", src, err)
		}
		err = ast.CheckWellFormed(p)
		if err == nil {
			t.Errorf("%s: expected well-formedness error", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", src, err, want)
		}
	}
	// And a valid program passes.
	ok := MustParseProgram(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
		part(P, <S>) <- p(P, S).
		young(X, <Y>) <- sg(X, Y), not hasdesc(X).
	`)
	if err := ast.CheckWellFormed(ok); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

// TestParseQuotedNames: a quoted name is an identifier wherever a bare one
// is — predicate, functor, atom — and a program using them prints back to
// the same text.
func TestParseQuotedNames(t *testing.T) {
	src := "'Person'('John Smith', f(), '$set'(a), -9223372036854775808) <- q('X', 'not').\n"
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if r.Head.Pred != "Person" || r.Body[0].Pred != "q" {
		t.Fatalf("predicates %q, %q", r.Head.Pred, r.Body[0].Pred)
	}
	want := []term.Term{term.Atom("John Smith"), term.NewCompound("f"), term.NewCompound("$set", term.Atom("a")), term.Int(math.MinInt64)}
	for i, w := range want {
		if !term.Equal(r.Head.Args[i], w) {
			t.Errorf("head argument %d = %v, want %v", i, r.Head.Args[i], w)
		}
	}
	if !term.Equal(r.Body[0].Args[0], term.Atom("X")) || !term.Equal(r.Body[0].Args[1], term.Atom("not")) {
		t.Errorf("body arguments %v", r.Body[0].Args)
	}
	if got := p.String(); got != src {
		t.Errorf("printed %q, want %q", got, src)
	}
	if _, err := ParseTerm("-9223372036854775809"); err == nil {
		t.Error("-2⁶³-1 parsed")
	}
}
