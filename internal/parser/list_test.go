package parser

import (
	"testing"

	"ldl1/internal/term"
)

func TestParseLists(t *testing.T) {
	// Empty list.
	tm, err := ParseTerm("[]")
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(tm, term.EmptyList) {
		t.Fatalf("[] = %v", tm)
	}
	// Proper list.
	tm, err = ParseTerm("[1, 2, 3]")
	if err != nil {
		t.Fatal(err)
	}
	want := term.NewList(term.Int(1), term.Int(2), term.Int(3))
	if !term.Equal(tm, want) {
		t.Fatalf("[1,2,3] = %v", tm)
	}
	if tm.String() != "[1, 2, 3]" {
		t.Errorf("list String = %q", tm.String())
	}
	// Head-tail pattern.
	tm, err = ParseTerm("[H | T]")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := tm.(*term.Compound)
	if !ok || c.Functor != term.ConsFunctor {
		t.Fatalf("[H|T] = %v", tm)
	}
	if tm.String() != "[H | T]" {
		t.Errorf("partial list String = %q", tm.String())
	}
	// Mixed prefix with tail.
	tm, err = ParseTerm("[1, 2 | T]")
	if err != nil {
		t.Fatal(err)
	}
	if tm.String() != "[1, 2 | T]" {
		t.Errorf("mixed list String = %q", tm.String())
	}
	// Nested lists and sets.
	tm, err = ParseTerm("[{1}, [2], []]")
	if err != nil {
		t.Fatal(err)
	}
	if tm.String() != "[{1}, [2], []]" {
		t.Errorf("nested String = %q", tm.String())
	}
	// Errors.
	for _, bad := range []string{"[1, 2", "[1 |]", "[| T]", "[1 | 2 | 3]"} {
		if _, err := ParseTerm(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestListsInRules(t *testing.T) {
	// Lists destructure through = like any compound.
	p, err := ParseProgram(`
		l([1, 2, 3]).
		head(H) <- l(L), L = [H | _].
		second(X) <- l(L), L = [_, X | _].
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	// Round trip through String.
	if got := p.Rules[1].String(); got == "" {
		t.Error("rule String empty")
	}
	reparsed, err := ParseProgram(p.String())
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, p)
	}
	if len(reparsed.Rules) != 3 {
		t.Fatal("round trip lost rules")
	}
}
