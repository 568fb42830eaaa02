package unify

import (
	"errors"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
	"ldl1/internal/term"
)

func mustTerm(t *testing.T, src string) term.Term {
	t.Helper()
	tm, err := parser.ParseTerm(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return tm
}

func TestApplySconsEvaluates(t *testing.T) {
	// §3.2 example: A = p(scons(a, X)), θ = {X/{a}} ⇒ Aθ = p({a}).
	b := NewBindings()
	b.Bind("X", term.NewSet(term.Atom("a")))
	got, err := Apply(mustTerm(t, "scons(a, X)"), b)
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(got, term.NewSet(term.Atom("a"))) {
		t.Fatalf("scons(a,{a}) = %v", got)
	}
}

func TestApplySconsOutsideU(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(5))
	_, err := Apply(mustTerm(t, "scons(a, X)"), b)
	if !errors.Is(err, ErrOutsideU) {
		t.Fatalf("scons onto non-set should be outside U, got %v", err)
	}
}

func TestApplyUnbound(t *testing.T) {
	_, err := Apply(term.Var("X"), NewBindings())
	if !errors.Is(err, ErrUnbound) {
		t.Fatalf("expected ErrUnbound, got %v", err)
	}
}

func TestApplySetPattern(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(2))
	b.Bind("Y", term.Int(1))
	b.Bind("Z", term.Int(2))
	got, err := Apply(mustTerm(t, "{X, Y, Z}"), b)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates eliminated during set construction (§1 book_deal).
	if !term.Equal(got, term.NewSet(term.Int(1), term.Int(2))) {
		t.Fatalf("{2,1,2} = %v", got)
	}
}

func TestApplyArithmetic(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(7))
	b.Bind("Y", term.Int(3))
	cases := map[string]term.Int{
		"X + Y":     10,
		"X - Y":     4,
		"X * Y":     21,
		"X / Y":     2,
		"-X":        -7,
		"X + Y * Y": 16,
	}
	for src, want := range cases {
		got, err := Apply(mustTerm(t, src), b)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if !term.Equal(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if _, err := Apply(mustTerm(t, "X / Z"), func() *Bindings {
		b := NewBindings()
		b.Bind("X", term.Int(1))
		b.Bind("Z", term.Int(0))
		return b
	}()); !errors.Is(err, ErrOutsideU) {
		t.Errorf("division by zero should be outside U, got %v", err)
	}
	if _, err := Apply(mustTerm(t, "X + Z"), func() *Bindings {
		b := NewBindings()
		b.Bind("X", term.Int(1))
		b.Bind("Z", term.Atom("a"))
		return b
	}()); !errors.Is(err, ErrOutsideU) {
		t.Errorf("arithmetic on atom should be outside U, got %v", err)
	}
}

func TestApplyUninterpretedCompound(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(1))
	got, err := Apply(mustTerm(t, "f(X, g(X))"), b)
	if err != nil {
		t.Fatal(err)
	}
	want := term.NewCompound("f", term.Int(1), term.NewCompound("g", term.Int(1)))
	if !term.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestMatchBasics(t *testing.T) {
	b := NewBindings()
	if !Match(term.Var("X"), term.Int(3), b) {
		t.Fatal("var should match anything")
	}
	if v, _ := b.Lookup("X"); !term.Equal(v, term.Int(3)) {
		t.Fatalf("X = %v", v)
	}
	// Bound variable must agree.
	if Match(term.Var("X"), term.Int(4), b) {
		t.Fatal("bound var matched different value")
	}
	if !Match(term.Var("X"), term.Int(3), b) {
		t.Fatal("bound var should match same value")
	}
}

func TestMatchUndoOnFailure(t *testing.T) {
	b := NewBindings()
	pat := mustTerm(t, "f(X, Y, 3)")
	val := term.NewCompound("f", term.Int(1), term.Int(2), term.Int(9))
	if Match(pat, val, b) {
		t.Fatal("should not match: 3 vs 9")
	}
	if b.Len() != 0 {
		t.Fatalf("bindings leaked after failed match: %d", b.Len())
	}
}

func TestMatchCompoundAndSets(t *testing.T) {
	b := NewBindings()
	pat := mustTerm(t, "f(X, {1, 2})")
	val := term.NewCompound("f", term.Atom("a"), term.NewSet(term.Int(2), term.Int(1)))
	if !Match(pat, val, b) {
		t.Fatal("compound with set argument should match")
	}
	// Sets match only by equality, never by decomposition.
	b2 := NewBindings()
	if Match(mustTerm(t, "{1, 2}"), term.NewSet(term.Int(1)), b2) {
		t.Fatal("distinct sets must not match")
	}
	// scons patterns cannot be inverted.
	b3 := NewBindings()
	if Match(mustTerm(t, "scons(X, S)"), term.NewSet(term.Int(1)), b3) {
		t.Fatal("scons pattern must not decompose a set")
	}
}

// TestMatchEvaluatesBoundPatterns pins the one rule for interpreted
// arguments: once the bindings (or the rest of the pattern) bind their
// variables they are evaluated and compared by value; before that they
// match nothing.
func TestMatchEvaluatesBoundPatterns(t *testing.T) {
	c5 := term.Atom("c5")
	for _, c := range []struct {
		pat   string
		bound map[term.Var]term.Term
		val   term.Term
		want  bool
	}{
		{"X + 1", map[term.Var]term.Term{"X": term.Int(1)}, term.Int(2), true},
		{"X + 1", map[term.Var]term.Term{"X": term.Int(1)}, term.Int(3), false},
		{"X + 1", nil, term.Int(2), false},
		{"{X}", map[term.Var]term.Term{"X": c5}, term.NewSet(c5), true},
		{"{X}", nil, term.NewSet(c5), false},
		{"scons(X, S)", map[term.Var]term.Term{"X": c5, "S": term.NewSet()}, term.NewSet(c5), true},
		// The rest of the pattern binds X first, whatever the order.
		{"f({X}, X)", nil, term.NewCompound("f", term.NewSet(c5), c5), true},
		{"f({X}, X)", nil, term.NewCompound("f", term.NewSet(c5), term.Atom("c6")), false},
	} {
		b := NewBindings()
		for v, x := range c.bound {
			b.Bind(v, x)
		}
		n := b.Len()
		if got := Match(mustTerm(t, c.pat), c.val, b); got != c.want {
			t.Errorf("Match(%s, %s) under %v = %v, want %v", c.pat, c.val, c.bound, got, c.want)
		} else if !got && b.Len() != n {
			t.Errorf("Match(%s, %s) failed but left %d bindings", c.pat, c.val, b.Len()-n)
		}
	}

	// A literal's arguments match as one pattern: s(X, {X}) and s({X}, X)
	// both match s(c5, {c5}) with X unbound; b(X + 1) matches b(2) once X
	// is bound.
	prog, err := parser.ParseProgram("r(X) <- s(X, {X}), s({X}, X), b(X + 1).")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Rules[0].Body
	for i, f := range []*term.Fact{
		term.NewFact("s", c5, term.NewSet(c5)),
		term.NewFact("s", term.NewSet(c5), c5),
	} {
		b := NewBindings()
		if !MatchFact(body[i], f, b) {
			t.Errorf("%s should match %s", body[i], f)
		} else if v, _ := b.Lookup("X"); !term.Equal(v, c5) {
			t.Errorf("%s: X = %v", body[i], v)
		}
	}
	b := NewBindings()
	b.Bind("X", term.Int(1))
	if !MatchFact(body[2], term.NewFact("b", term.Int(2)), b) {
		t.Error("b(X + 1) should match b(2) with X = 1")
	}
	if MatchFact(body[2], term.NewFact("b", term.Int(2)), NewBindings()) {
		t.Error("b(X + 1) matched b(2) with X unbound")
	}
}

func TestMatchFact(t *testing.T) {
	prog, err := parser.ParseProgram("r(X, Y) <- p(X, f(Y)).")
	if err != nil {
		t.Fatal(err)
	}
	lit := prog.Rules[0].Body[0]
	b := NewBindings()
	fact := term.NewFact("p", term.Int(1), term.NewCompound("f", term.Atom("a")))
	if !MatchFact(lit, fact, b) {
		t.Fatal("should match")
	}
	if v, _ := b.Lookup("Y"); !term.Equal(v, term.Atom("a")) {
		t.Fatalf("Y = %v", v)
	}
	if MatchFact(lit, term.NewFact("q", term.Int(1)), b) {
		t.Fatal("wrong predicate matched")
	}
}

func TestApplyLit(t *testing.T) {
	prog, err := parser.ParseProgram("h({X, Y}, Z) <- q(X, Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBindings()
	b.Bind("X", term.Int(1))
	b.Bind("Y", term.Int(2))
	b.Bind("Z", term.Atom("c"))
	f, err := ApplyLit(prog.Rules[0].Head, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "h({1, 2}, c)" {
		t.Fatalf("fact = %v", f)
	}
}

func TestApplyPartial(t *testing.T) {
	b := NewBindings()
	b.Bind("X", term.Int(1))
	got := ApplyPartial(mustTerm(t, "f(X, Y, X + 1)"), b)
	want := term.NewCompound("f", term.Int(1), term.Var("Y"), term.Int(2))
	if !term.Equal(got, want) {
		t.Fatalf("partial = %v", got)
	}
}

func TestTrailMarkUndo(t *testing.T) {
	b := NewBindings()
	b.Bind("A", term.Int(1))
	m := b.Mark()
	b.Bind("B", term.Int(2))
	b.Bind("C", term.Int(3))
	b.Undo(m)
	if _, ok := b.Lookup("B"); ok {
		t.Fatal("B should be undone")
	}
	if _, ok := b.Lookup("A"); !ok {
		t.Fatal("A should survive")
	}
	_ = ast.Literal{} // keep ast import for MatchFact signature visibility
}
