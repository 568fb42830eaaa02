package builtin

import (
	"errors"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// lit builds a literal from source by parsing a one-literal rule body.
func lit(t *testing.T, src string) ast.Literal {
	t.Helper()
	p, err := parser.ParseProgram("h <- " + src + ".")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p.Rules[0].Body[0]
}

// solutions collects the bindings of l's variables at every solution Eval
// produces.
func solutions(t *testing.T, l ast.Literal, b *unify.Bindings) []map[term.Var]term.Term {
	t.Helper()
	var out []map[term.Var]term.Term
	err := Eval(l, b, nil, func() error {
		snap := map[term.Var]term.Term{}
		for _, v := range l.Vars() {
			if x, ok := b.Lookup(v); ok {
				snap[v] = x
			}
		}
		out = append(out, snap)
		return nil
	})
	if err != nil {
		t.Fatalf("Eval(%s): %v", l, err)
	}
	return out
}

func bind(pairs ...interface{}) *unify.Bindings {
	b := unify.NewBindings()
	for i := 0; i < len(pairs); i += 2 {
		b.Bind(term.Var(pairs[i].(string)), pairs[i+1].(term.Term))
	}
	return b
}

func TestMemberEnumerates(t *testing.T) {
	b := bind("S", term.NewSet(term.Int(1), term.Int(2), term.Int(3)))
	sols := solutions(t, lit(t, "member(X, S)"), b)
	if len(sols) != 3 {
		t.Fatalf("member enumerated %d solutions", len(sols))
	}
	// Test mode.
	b2 := bind("S", term.NewSet(term.Int(1)))
	if n := len(solutions(t, lit(t, "member(1, S)"), b2)); n != 1 {
		t.Errorf("member test true: %d", n)
	}
	if n := len(solutions(t, lit(t, "member(9, S)"), b2)); n != 0 {
		t.Errorf("member test false: %d", n)
	}
	// member on a non-set is false (§2.2), not an error.
	b3 := bind("S", term.Int(7))
	if n := len(solutions(t, lit(t, "member(X, S)"), b3)); n != 0 {
		t.Errorf("member on non-set: %d", n)
	}
	// Unbound set argument: instantiation error.
	err := Eval(lit(t, "member(X, S)"), unify.NewBindings(), nil, func() error { return nil })
	if !errors.Is(err, ErrInstantiation) {
		t.Errorf("member with unbound set: %v", err)
	}
}

func TestMemberPatternElement(t *testing.T) {
	// member(f(K), S): only f-shaped elements match.
	s := term.NewSet(
		term.NewCompound("f", term.Int(1)),
		term.Int(9),
		term.NewCompound("f", term.Int(2)),
	)
	b := bind("S", s)
	sols := solutions(t, lit(t, "member(f(K), S)"), b)
	if len(sols) != 2 {
		t.Fatalf("pattern member: %d solutions", len(sols))
	}
}

func TestUnionModes(t *testing.T) {
	s12 := term.NewSet(term.Int(1), term.Int(2))
	s23 := term.NewSet(term.Int(2), term.Int(3))
	s123 := term.NewSet(term.Int(1), term.Int(2), term.Int(3))

	// (b,b,f): compute.
	b := bind("A", s12, "B", s23)
	sols := solutions(t, lit(t, "union(A, B, C)"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["C"], s123) {
		t.Fatalf("union compute: %v", sols)
	}
	// (b,b,b): test.
	b = bind("A", s12, "B", s23, "C", s123)
	if n := len(solutions(t, lit(t, "union(A, B, C)"), b)); n != 1 {
		t.Errorf("union test: %d", n)
	}
	b = bind("A", s12, "B", s23, "C", s12)
	if n := len(solutions(t, lit(t, "union(A, B, C)"), b)); n != 0 {
		t.Errorf("union wrong test: %d", n)
	}
	// (b,f,b): enumerate completions — B ⊇ C\A plus any subset of A∩C.
	b = bind("A", s12, "C", s123)
	sols = solutions(t, lit(t, "union(A, B, C)"), b)
	// A∩C = {1,2}: 4 subsets.
	if len(sols) != 4 {
		t.Fatalf("union (b,f,b): %d solutions, want 4", len(sols))
	}
	for _, sol := range sols {
		got := sol["B"].(*term.Set)
		if !term.Equal(s12.Union(got), s123) {
			t.Errorf("bad completion %v", got)
		}
	}
	// (b,f,b) with A ⊄ C: no solutions.
	b = bind("A", term.NewSet(term.Int(9)), "C", s123)
	if n := len(solutions(t, lit(t, "union(A, B, C)"), b)); n != 0 {
		t.Errorf("union non-subset: %d", n)
	}
	// (f,f,b): all covers — 3^|C| assignments, deduplicated by pattern.
	b = bind("C", term.NewSet(term.Int(1), term.Int(2)))
	sols = solutions(t, lit(t, "union(A, B, C)"), b)
	if len(sols) != 9 {
		t.Fatalf("union (f,f,b): %d solutions, want 9", len(sols))
	}
	// Everything free: instantiation error.
	err := Eval(lit(t, "union(A, B, C)"), unify.NewBindings(), nil, func() error { return nil })
	if !errors.Is(err, ErrInstantiation) {
		t.Errorf("union all free: %v", err)
	}
	// Non-set bound argument: false.
	b = bind("A", term.Int(3), "B", s23)
	if n := len(solutions(t, lit(t, "union(A, B, C)"), b)); n != 0 {
		t.Errorf("union on non-set: %d", n)
	}
}

func TestPartitionModes(t *testing.T) {
	s12 := term.NewSet(term.Int(1), term.Int(2))
	s3 := term.NewSet(term.Int(3))
	s123 := term.NewSet(term.Int(1), term.Int(2), term.Int(3))

	// (f,b,b): disjoint union.
	b := bind("A", s12, "B", s3)
	sols := solutions(t, lit(t, "partition(S, A, B)"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["S"], s123) {
		t.Fatalf("partition compose: %v", sols)
	}
	// Overlapping parts: fail.
	b = bind("A", s12, "B", s12)
	if n := len(solutions(t, lit(t, "partition(S, A, B)"), b)); n != 0 {
		t.Errorf("partition overlap: %d", n)
	}
	// (b,b,f): complement.
	b = bind("S", s123, "A", s12)
	sols = solutions(t, lit(t, "partition(S, A, B)"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["B"], s3) {
		t.Fatalf("partition complement: %v", sols)
	}
	// (b,f,f): enumerate non-empty splits: 2^3 - 2 = 6.
	b = bind("S", s123)
	sols = solutions(t, lit(t, "partition(S, A, B)"), b)
	if len(sols) != 6 {
		t.Fatalf("partition enumerate: %d, want 6", len(sols))
	}
	for _, sol := range sols {
		a, bb := sol["A"].(*term.Set), sol["B"].(*term.Set)
		if a.Len() == 0 || bb.Len() == 0 || a.Intersect(bb).Len() != 0 || !term.Equal(a.Union(bb), s123) {
			t.Errorf("bad split %v | %v", a, bb)
		}
	}
	// Singleton cannot split into two non-empty parts, and no other mode
	// accepts an empty part either.
	for i, b := range []*unify.Bindings{bind("S", s3), bind("A", s3, "B", term.NewSet()), bind("S", s3, "A", s3), bind("S", s3, "B", s3)} {
		if n := len(solutions(t, lit(t, "partition(S, A, B)"), b)); n != 0 {
			t.Errorf("partition with an empty part, case %d: %d", i, n)
		}
	}
}

// TestEnumeratedSetsAreCanonical checks that the sets the generator modes
// build from S's canonical order, without sorting, equal their NewSet twins
// hash for hash, over elements of every kind.
func TestEnumeratedSetsAreCanonical(t *testing.T) {
	s := term.NewSet(term.Int(3), term.Atom("a"), term.Str("s"),
		term.NewCompound("f", term.Int(1)), term.NewSet(term.Int(1)))
	for _, c := range []struct {
		src  string
		b    *unify.Bindings
		vars []term.Var
		want int
	}{
		{"partition(S, A, B)", bind("S", s), []term.Var{"A", "B"}, 30},
		{"union(A, B, C)", bind("C", s), []term.Var{"A", "B"}, 243},
		{"union(A, B, C)", bind("A", s, "C", s), []term.Var{"B"}, 32},
	} {
		sols := solutions(t, lit(t, c.src), c.b)
		if len(sols) != c.want {
			t.Fatalf("%s: %d solutions, want %d", c.src, len(sols), c.want)
		}
		for _, sol := range sols {
			for _, v := range c.vars {
				got := sol[v].(*term.Set)
				if twin := term.NewSet(got.Elems()...); !term.Equal(got, twin) || got.Hash() != twin.Hash() {
					t.Fatalf("%s: %s = %v is not canonical", c.src, v, got)
				}
			}
		}
	}
}

func TestEquality(t *testing.T) {
	// Assignment right-to-left and left-to-right.
	b := bind("X", term.Int(3))
	sols := solutions(t, lit(t, "Y = X + 1"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["Y"], term.Int(4)) {
		t.Fatalf("= assign: %v", sols)
	}
	sols = solutions(t, lit(t, "X + 1 = Y"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["Y"], term.Int(4)) {
		t.Fatalf("= assign reversed: %v", sols)
	}
	// Decomposition of compounds.
	b = bind("T", term.NewCompound("f", term.Int(1), term.Atom("a")))
	sols = solutions(t, lit(t, "T = f(A, B)"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["A"], term.Int(1)) || !term.Equal(sols[0]["B"], term.Atom("a")) {
		t.Fatalf("= decompose: %v", sols)
	}
	// Enumerated set construction S = {X} with X bound.
	b = bind("X", term.Int(5))
	sols = solutions(t, lit(t, "S = {X}"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["S"], term.NewSet(term.Int(5))) {
		t.Fatalf("= set pattern: %v", sols)
	}
	// Both sides unbound: instantiation error.
	err := Eval(lit(t, "X = Y"), unify.NewBindings(), nil, func() error { return nil })
	if !errors.Is(err, ErrInstantiation) {
		t.Errorf("= both free: %v", err)
	}
	// scons outside U makes "=" false, not an error (§2.2).
	b = bind("X", term.Int(1))
	if n := len(solutions(t, lit(t, "Y = scons(a, X)"), b)); n != 0 {
		t.Errorf("= on outside-U value: %d solutions", n)
	}
}

// TestEqualityOutputBindsFirst pins the generator mode Ready allows for an
// output with an interpreted argument: the variable binds at its bindable
// position, and the set pattern is then compared by value.
func TestEqualityOutputBindsFirst(t *testing.T) {
	c5 := term.Atom("c5")
	b := bind("T", term.NewCompound("f", term.NewSet(c5), c5))
	sols := solutions(t, lit(t, "T = f({Y}, Y)"), b)
	if len(sols) != 1 || !term.Equal(sols[0]["Y"], c5) {
		t.Fatalf("T = f({Y}, Y): %v", sols)
	}
	b = bind("T", term.NewCompound("f", term.NewSet(c5), term.Atom("c6")))
	if n := len(solutions(t, lit(t, "T = f({Y}, Y)"), b)); n != 0 {
		t.Fatalf("T = f({Y}, Y) on a mismatched set: %d solutions", n)
	}
}

func TestDisequalityAndComparisons(t *testing.T) {
	b := bind("X", term.Int(1), "Y", term.Int(2))
	for src, want := range map[string]int{
		"X /= Y": 1, "X /= X": 0,
		"X < Y": 1, "Y < X": 0,
		"X <= X": 1, "Y <= X": 0,
		"Y > X": 1, "X > Y": 0,
		"Y >= Y": 1, "X >= Y": 0,
	} {
		if n := len(solutions(t, lit(t, src), b)); n != want {
			t.Errorf("%s: %d solutions, want %d", src, n, want)
		}
	}
	// Comparisons on atoms use term order.
	b2 := bind("A", term.Atom("apple"), "B", term.Atom("pear"))
	if n := len(solutions(t, lit(t, "A < B"), b2)); n != 1 {
		t.Error("atom comparison failed")
	}
	// Unbound operand: instantiation error.
	err := Eval(lit(t, "X < Z"), bind("X", term.Int(1)), nil, func() error { return nil })
	if !errors.Is(err, ErrInstantiation) {
		t.Errorf("comparison with unbound: %v", err)
	}
}

func TestSetPredicate(t *testing.T) {
	if n := len(solutions(t, lit(t, "set(S)"), bind("S", term.NewSet(term.Int(1))))); n != 1 {
		t.Error("set({1}) should hold")
	}
	if n := len(solutions(t, lit(t, "set(S)"), bind("S", term.Int(1)))); n != 0 {
		t.Error("set(1) should fail")
	}
	if n := len(solutions(t, lit(t, "set(S)"), bind("S", term.Term(term.EmptySet)))); n != 1 {
		t.Error("set({}) should hold")
	}
}

func TestNegatedBuiltins(t *testing.T) {
	b := bind("X", term.Int(1), "S", term.NewSet(term.Int(2)))
	if n := len(solutions(t, lit(t, "not member(X, S)"), b)); n != 1 {
		t.Error("¬member should hold for absent element")
	}
	b2 := bind("X", term.Int(2), "S", term.NewSet(term.Int(2)))
	if n := len(solutions(t, lit(t, "not member(X, S)"), b2)); n != 0 {
		t.Error("¬member should fail for present element")
	}
	if n := len(solutions(t, lit(t, "not X = 1"), bind("X", term.Int(2)))); n != 1 {
		t.Error("¬= should hold for different values")
	}
}

func TestTrueFalse(t *testing.T) {
	if n := len(solutions(t, ast.NewLit("true"), unify.NewBindings())); n != 1 {
		t.Error("true should yield once")
	}
	if n := len(solutions(t, ast.NewLit("false"), unify.NewBindings())); n != 0 {
		t.Error("false should never yield")
	}
}

// TestHolds: a fully bound comparison continues the enumeration exactly
// when it holds.
func TestHolds(t *testing.T) {
	b := bind("X", term.Int(1))
	for src, want := range map[string]int{"X < 5": 1, "X > 5": 0} {
		n := 0
		if err := Eval(lit(t, src), b, nil, func() error { n++; return nil }); err != nil || n != want {
			t.Errorf("Eval(%s) continued %d times, err %v; want %d", src, n, err, want)
		}
	}
}

func TestReady(t *testing.T) {
	bound := func(vs ...term.Var) func(term.Var) bool {
		m := map[term.Var]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return func(v term.Var) bool { return m[v] }
	}
	cases := []struct {
		src   string
		bound []term.Var
		want  bool
	}{
		{"member(X, S)", []term.Var{"S"}, true},
		{"member(X, S)", []term.Var{"X"}, false},
		{"union(A, B, C)", []term.Var{"A", "B"}, true},
		{"union(A, B, C)", []term.Var{"C"}, true},
		{"union(A, B, C)", []term.Var{"A"}, false},
		{"partition(S, A, B)", []term.Var{"S"}, true},
		{"partition(S, A, B)", []term.Var{"A", "B"}, true},
		{"partition(S, A, B)", []term.Var{"A"}, false},
		{"X = Y + 1", []term.Var{"Y"}, true},
		// Y + 1 cannot be inverted: with only X bound it waits for Y.
		{"X = Y + 1", []term.Var{"X"}, false},
		{"X = Y + 1", []term.Var{"X", "Y"}, true},
		{"X = Y + 1", nil, false},
		{"T = {Y}", []term.Var{"T"}, false},
		{"T = {Y}", []term.Var{"Y"}, true},
		{"T = f({Y}, Y)", []term.Var{"T"}, true}, // Y binds, then {Y} compares
		{"T = f(Y, Z)", []term.Var{"T"}, true},
		{"member(X + 1, S)", []term.Var{"S"}, false},
		{"member(f(X), S)", []term.Var{"S"}, true},
		{"union(A, {B}, C)", []term.Var{"A", "C"}, false},
		{"partition(S, {A}, B)", []term.Var{"S"}, false},
		{"X < Y", []term.Var{"X", "Y"}, true},
		{"X < Y", []term.Var{"X"}, false},
		{"not member(X, S)", []term.Var{"X", "S"}, true},
		{"not member(X, S)", []term.Var{"S"}, false},
	}
	for _, c := range cases {
		if got := Ready(lit(t, c.src), bound(c.bound...)); got != c.want {
			t.Errorf("Ready(%s | %v) = %v, want %v", c.src, c.bound, got, c.want)
		}
	}
}

func TestIsBuiltin(t *testing.T) {
	for _, p := range []string{"member", "union", "partition", "set", "=", "/=", "<", "<=", ">", ">=", "true", "false"} {
		if !IsBuiltin(p) {
			t.Errorf("%s should be builtin", p)
		}
	}
	if IsBuiltin("ancestor") {
		t.Error("ancestor is not builtin")
	}
}

func TestEnumerationGuards(t *testing.T) {
	// Refuse exponential enumeration on large sets.
	elems := make([]term.Term, maxEnumerate+1)
	for i := range elems {
		elems[i] = term.Int(int64(i))
	}
	big := term.NewSet(elems...)
	err := Eval(lit(t, "partition(S, A, B)"), bind("S", big), nil, func() error { return nil })
	if err == nil {
		t.Error("partition should refuse huge enumerations")
	}
	err = Eval(lit(t, "union(A, B, C)"), bind("C", big), nil, func() error { return nil })
	if err == nil {
		t.Error("union should refuse huge enumerations")
	}
}

func TestEarlyStop(t *testing.T) {
	// A yield error propagates out and stops enumeration.
	b := bind("S", term.NewSet(term.Int(1), term.Int(2), term.Int(3)))
	count := 0
	sentinel := errors.New("stop here")
	err := Eval(lit(t, "member(X, S)"), b, nil, func() error {
		count++
		return sentinel
	})
	if err != sentinel || count != 1 {
		t.Errorf("early stop: err=%v count=%d", err, count)
	}
}

// TestUnionsShareTheTable: under one set table, partition (S free) and
// union/3 (S1, S2 bound) return the set an equal union built before, even
// from other operands; a nil table builds each union, and a pair that
// shares an element has no partition under either.
func TestUnionsShareTheTable(t *testing.T) {
	one := func(src string, sets *term.SetTable, pairs ...interface{}) term.Term {
		t.Helper()
		var got term.Term
		n := 0
		l := lit(t, src)
		b := bind(pairs...)
		err := Eval(l, b, sets, func() error {
			n++
			got, _ = b.Lookup("S")
			return nil
		})
		if err != nil || n > 1 {
			t.Fatalf("Eval(%s): %d solutions, %v", src, n, err)
		}
		return got
	}
	s1, s2, s3 := term.NewSet(term.Int(1)), term.NewSet(term.Int(2)), term.NewSet(term.Int(3))
	s12, s23 := term.NewSet(term.Int(1), term.Int(2)), term.NewSet(term.Int(2), term.Int(3))
	s123 := term.NewSet(term.Int(1), term.Int(2), term.Int(3))

	var sets term.SetTable
	a := one("partition(S, A, B)", &sets, "A", s12, "B", s3)
	b := one("partition(S, A, B)", &sets, "A", s1, "B", s23)
	c := one("union(A, B, S)", &sets, "A", s12, "B", s23)
	if !term.Equal(a, s123) || a != b || a != c {
		t.Errorf("unions equal to %v under one table: %p %v, %p %v, %p %v", s123, a, a, b, b, c, c)
	}
	if d := one("partition(S, A, B)", nil, "A", s12, "B", s3); !term.Equal(d, s123) || d == a {
		t.Errorf("partition under a nil table = %v (%p), want a new %v", d, d, s123)
	}
	for _, sets := range []*term.SetTable{&sets, nil} {
		if got := one("partition(S, A, B)", sets, "A", s12, "B", s23); got != nil {
			t.Errorf("partition of %v and %v, which share 2: %v", s12, s23, got)
		}
	}
	if got := one("union(A, B, S)", &sets, "A", s12, "B", s2); got != s12 {
		t.Errorf("union of %v and its subset %v is %v (%p), want the operand (%p)", s12, s2, got, got, s12)
	}
}
