package unify

import (
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/term"
)

func TestApplyPartialKeepsGroups(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(1))
	in := term.NewGroup(term.NewCompound("f", term.Var("X"), term.Var("Y")))
	got := ApplyPartial(in, b)
	g, ok := got.(*term.Group)
	if !ok {
		t.Fatalf("partial application lost the group: %v", got)
	}
	inner := g.Inner.(*term.Compound)
	if !term.Equal(inner.Args[0], term.Int(1)) || !term.Equal(inner.Args[1], term.Var("Y")) {
		t.Fatalf("inner = %v", inner)
	}
}

func TestApplyGroupIsOutsideU(t *testing.T) {
	b := NewBindings()
	if _, err := Apply(term.NewGroup(term.Var("X")), b); err == nil {
		t.Fatal("grouping construct must not evaluate to a U value")
	}
}

func TestApplyListTerms(t *testing.T) {
	b := NewBindings()
	b.Bind("H", term.Int(1))
	b.Bind("T", term.NewList(term.Int(2)))
	lt, err := parser.ParseTerm("[H | T]")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(lt, b)
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(got, term.NewList(term.Int(1), term.Int(2))) {
		t.Fatalf("list application = %v", got)
	}
	// Matching decomposes lists like any compound.
	b2 := NewBindings()
	pat, _ := parser.ParseTerm("[A, B | Rest]")
	val := term.NewList(term.Int(1), term.Int(2), term.Int(3))
	if !Match(pat, val, b2) {
		t.Fatal("list pattern should match")
	}
	if v, _ := b2.Lookup("Rest"); !term.Equal(v, term.NewList(term.Int(3))) {
		t.Fatalf("Rest = %v", v)
	}
}

func TestMatchFactArityMismatch(t *testing.T) {
	p := parser.MustParseProgram("h(X) <- q(X).")
	lit := p.Rules[0].Body[0]
	b := NewBindings()
	if MatchFact(lit, term.NewFact("q", term.Int(1), term.Int(2)), b) {
		t.Fatal("arity mismatch matched")
	}
	if b.Len() != 0 {
		t.Fatal("bindings leaked")
	}
}
