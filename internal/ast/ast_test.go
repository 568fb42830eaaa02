package ast

import (
	"testing"

	"ldl1/internal/term"
)

func TestLiteralBasics(t *testing.T) {
	l := NewLit("p", term.Var("X"), term.Int(1))
	if l.Arity() != 2 || l.Negated {
		t.Fatal("NewLit wrong")
	}
	n := NewNegLit("p", term.Var("X"))
	if !n.Negated {
		t.Fatal("NewNegLit not negated")
	}
	if n.Positive().Negated {
		t.Fatal("Positive should strip negation")
	}
	if n.String() != "not p(X)" {
		t.Errorf("String = %q", n.String())
	}
	if NewLit("q").String() != "q" {
		t.Error("0-ary literal String wrong")
	}
}

func TestLiteralInfixString(t *testing.T) {
	eq := NewLit("=", term.Var("X"), term.Int(1))
	if eq.String() != "X = 1" {
		t.Errorf("infix = rendered %q", eq.String())
	}
	lt := NewNegLit("<", term.Var("X"), term.Var("Y"))
	if lt.String() != "not X < Y" {
		t.Errorf("negated infix rendered %q", lt.String())
	}
}

func TestGroupDetection(t *testing.T) {
	g := NewLit("p", term.Var("X"), term.NewGroup(term.Var("Y")))
	if !g.HasGroup() {
		t.Fatal("HasGroup false")
	}
	idx, inner := g.GroupArg()
	if idx != 1 || !term.Equal(inner, term.Var("Y")) {
		t.Fatalf("GroupArg = %d, %v", idx, inner)
	}
	plain := NewLit("p", term.Var("X"))
	if plain.HasGroup() {
		t.Fatal("plain literal has no group")
	}
	if idx, _ := plain.GroupArg(); idx != -1 {
		t.Fatal("GroupArg on plain should be -1")
	}
	// Nested group inside a compound is detected by HasGroup but is not
	// a direct GroupArg.
	nested := NewLit("p", term.NewCompound("f", term.NewGroup(term.Var("Y"))))
	if !nested.HasGroup() {
		t.Fatal("nested group not detected")
	}
	if idx, _ := nested.GroupArg(); idx != -1 {
		t.Fatal("nested group is not a direct argument")
	}
}

func TestRuleClassification(t *testing.T) {
	fact := Rule{Head: NewLit("p", term.Int(1))}
	if !fact.IsFact() || fact.IsGroupingRule() || !fact.IsSimple() {
		t.Fatal("fact classification wrong")
	}
	grouping := rule(NewLit("p", term.NewGroup(term.Var("X"))), NewLit("q", term.Var("X")))
	if grouping.IsFact() || !grouping.IsGroupingRule() || grouping.IsSimple() {
		t.Fatal("grouping classification wrong")
	}
	negated := rule(NewLit("p", term.Var("X")), NewLit("q", term.Var("X")), NewNegLit("r", term.Var("X")))
	if negated.IsSimple() {
		t.Fatal("negated rule is not simple")
	}
	simple := rule(NewLit("p", term.Var("X")), NewLit("q", term.Var("X")))
	if !simple.IsSimple() {
		t.Fatal("simple rule misclassified")
	}
}

func TestRuleVarsOrder(t *testing.T) {
	r := rule(
		NewLit("h", term.Var("A"), term.Var("B")),
		NewLit("p", term.Var("B"), term.Var("C")),
		NewLit("q", term.Var("A"), term.Var("D")),
	)
	vs := r.Vars()
	want := []term.Var{"A", "B", "C", "D"}
	if len(vs) != len(want) {
		t.Fatalf("Vars = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vs, want)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := NewProgram(
		rule(NewLit("a", term.Var("X")), NewLit("e", term.Var("X"))),
		Rule{Head: NewLit("e", term.Int(1))},
	)
	p.Add(rule(NewLit("b", term.Var("X")), NewLit("e", term.Var("X")), NewNegLit("a", term.Var("X"))))
	if p.IsPositive() {
		t.Fatal("program with negation is not positive")
	}
	preds := p.Preds()
	for _, want := range []string{"a", "b", "e"} {
		if !preds[want] {
			t.Errorf("Preds missing %s", want)
		}
	}
	heads := p.HeadPreds()
	if !heads["a"] || !heads["b"] || !heads["e"] {
		t.Errorf("HeadPreds = %v", heads)
	}
}

func TestProgramCloneIsolation(t *testing.T) {
	p := NewProgram(rule(NewLit("a", term.Var("X")), NewLit("e", term.Var("X"))))
	c := p.Clone()
	c.Rules[0].Body[0] = NewLit("changed", term.Var("X"))
	if p.Rules[0].Body[0].Pred != "e" {
		t.Fatal("clone mutation leaked into original")
	}
	c.Add(Rule{Head: NewLit("extra")})
	if len(p.Rules) != 1 {
		t.Fatal("clone Add leaked")
	}
}

func TestWellFormedAcceptsGroupingWithNegation(t *testing.T) {
	// The §6 young rule shape: negation in a grouping body is allowed
	// (admissibility handles it; see package comment).
	r := rule(
		NewLit("young", term.Var("X"), term.NewGroup(term.Var("Y"))),
		NewLit("sg", term.Var("X"), term.Var("Y")),
		NewNegLit("hasdesc", term.Var("X")),
	)
	if err := CheckRuleWellFormed(r); err != nil {
		t.Fatalf("young rule rejected: %v", err)
	}
}

func TestWellFormedGroupOverNonVariable(t *testing.T) {
	r := rule(
		NewLit("p", term.NewGroup(term.NewCompound("f", term.Var("X")))),
		NewLit("q", term.Var("X")),
	)
	err := CheckRuleWellFormed(r)
	if err == nil {
		t.Fatal("core check must reject grouping over non-variables")
	}
}

func TestWellFormedError(t *testing.T) {
	r := rule(NewLit("p", term.Var("X"), term.Var("Y")), NewLit("q", term.Var("X")))
	err := CheckRuleWellFormed(r)
	if err == nil {
		t.Fatal("unsafe rule accepted")
	}
	var wf *WellFormedError
	if !asWellFormed(err, &wf) {
		t.Fatalf("error type %T", err)
	}
	if wf.Rule.Head.Pred != "p" {
		t.Errorf("error rule = %v", wf.Rule)
	}
}

func asWellFormed(err error, target **WellFormedError) bool {
	if e, ok := err.(*WellFormedError); ok {
		*target = e
		return true
	}
	return false
}

// rule builds a rule in Go code.
func rule(head Literal, body ...Literal) Rule { return Rule{Head: head, Body: body} }
