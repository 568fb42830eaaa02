package eval

import (
	"context"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

func mustCompileRule(t *testing.T, src string) *CompiledRule {
	t.Helper()
	p := parser.MustParseProgram(src)
	cr, err := CompileRule(p.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func atom(s string) term.Term { return term.Atom(s) }

// derives is cr.Derives on a fresh driver.
func derives(t *testing.T, cr *CompiledRule, db *store.DB, f *term.Fact) (ok bool, err error) {
	t.Helper()
	err = NewDriver(context.Background(), nil, 1, 0).Do(func(x *Exec) error {
		ok, err = cr.Derives(x, db, f)
		return err
	})
	return ok, err
}

// onDriver runs f on the firing context of a fresh unbounded driver, the
// way maintenance runs an enumeration outside a round.
func onDriver(t *testing.T, st *Stats, f func(x *Exec) error) {
	t.Helper()
	if err := NewDriver(context.Background(), st, 1, 0).Do(f); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateDeltaPositive(t *testing.T) {
	cr := mustCompileRule(t, `anc(X, Y) <- par(X, Z), anc(Z, Y).`)
	db := store.NewDB()
	db.Insert(term.NewFact("par", atom("a"), atom("b")))
	db.Insert(term.NewFact("par", atom("b"), atom("c")))
	db.Insert(term.NewFact("anc", atom("b"), atom("c")))

	// Delta on the anc literal (index 1): only anc(b, c) is new.
	delta := store.NewRelation("anc", false)
	delta.Insert(term.NewFact("anc", atom("b"), atom("c")))
	var got []*term.Fact
	var st Stats
	onDriver(t, &st, func(x *Exec) error {
		return cr.EnumerateDelta(x, db, 1, delta, func(args []term.Term) error {
			got = append(got, term.NewFact("anc", append([]term.Term(nil), args...)...))
			return nil
		})
	})
	if st.Firings != 1 {
		t.Errorf("firings = %d, want 1", st.Firings)
	}
	if len(got) != 1 || !term.EqualFacts(got[0], term.NewFact("anc", atom("a"), atom("c"))) {
		t.Fatalf("delta enumeration = %v, want [anc(a, c)]", got)
	}
}

func TestEnumerateDeltaNegated(t *testing.T) {
	// q(X) <- p(X), not r(X): a delta on the negated literal enumerates
	// the solutions whose r-fact appeared (or disappeared).
	cr := mustCompileRule(t, `q(X) <- p(X), not r(X).`)
	if cr.HasDelta(0) != true || cr.HasDelta(1) != true {
		t.Fatal("both body literals should carry delta plans")
	}
	db := store.NewDB()
	db.Insert(term.NewFact("p", atom("a")))
	db.Insert(term.NewFact("p", atom("b")))

	delta := store.NewRelation("r", false)
	delta.Insert(term.NewFact("r", atom("a")))
	delta.Insert(term.NewFact("r", atom("z"))) // no matching p: ignored
	var got []*term.Fact
	onDriver(t, nil, func(x *Exec) error {
		return cr.EnumerateDelta(x, db, 1, delta, func(args []term.Term) error {
			got = append(got, term.NewFact("q", append([]term.Term(nil), args...)...))
			return nil
		})
	})
	if len(got) != 1 || !term.EqualFacts(got[0], term.NewFact("q", atom("a"))) {
		t.Fatalf("negated delta enumeration = %v, want [q(a)]", got)
	}
}

func TestDerives(t *testing.T) {
	cr := mustCompileRule(t, `anc(X, Y) <- par(X, Z), anc(Z, Y).`)
	db := store.NewDB()
	db.Insert(term.NewFact("par", atom("a"), atom("b")))
	db.Insert(term.NewFact("anc", atom("b"), atom("c")))

	ok, err := derives(t, cr, db, term.NewFact("anc", atom("a"), atom("c")))
	if err != nil || !ok {
		t.Fatalf("Derives(anc(a,c)) = %v, %v; want true", ok, err)
	}
	ok, err = derives(t, cr, db, term.NewFact("anc", atom("c"), atom("a")))
	if err != nil || ok {
		t.Fatalf("Derives(anc(c,a)) = %v, %v; want false", ok, err)
	}
	// Wrong predicate / arity never derives.
	ok, _ = derives(t, cr, db, term.NewFact("par", atom("a"), atom("b")))
	if ok {
		t.Fatal("Derives matched a different predicate")
	}
}

func TestDerivesArithmeticHeadFallback(t *testing.T) {
	// X+Y in the head cannot be inverted by matching; Derives must fall
	// back to enumeration and still answer correctly.
	cr := mustCompileRule(t, `sum(X, X + Y) <- a(X), b(Y).`)
	if cr.headMatchable {
		t.Fatal("arithmetic head should not be matchable")
	}
	db := store.NewDB()
	db.Insert(term.NewFact("a", term.Int(2)))
	db.Insert(term.NewFact("b", term.Int(3)))
	ok, err := derives(t, cr, db, term.NewFact("sum", term.Int(2), term.Int(5)))
	if err != nil || !ok {
		t.Fatalf("Derives(sum(2,5)) = %v, %v; want true", ok, err)
	}
	ok, err = derives(t, cr, db, term.NewFact("sum", term.Int(2), term.Int(6)))
	if err != nil || ok {
		t.Fatalf("Derives(sum(2,6)) = %v, %v; want false", ok, err)
	}
}

func TestEnumerateBoundGroupingClass(t *testing.T) {
	cr := mustCompileRule(t, `supplies(S, <P>) <- sp(S, P).`)
	if cr.GroupIdx() != 1 || !cr.ClassBindable() {
		t.Fatalf("GroupIdx = %d, ClassBindable = %v", cr.GroupIdx(), cr.ClassBindable())
	}
	db := store.NewDB()
	db.Insert(term.NewFact("sp", atom("s1"), atom("p1")))
	db.Insert(term.NewFact("sp", atom("s1"), atom("p2")))
	db.Insert(term.NewFact("sp", atom("s2"), atom("p3")))

	pre := unify.NewBindings()
	pre.Bind(term.Var("S"), atom("s1"))
	var elems []term.Term
	onDriver(t, nil, func(x *Exec) error {
		return cr.EnumerateBound(x, db, pre, func(args []term.Term) error {
			elems = append(elems, args[cr.GroupIdx()])
			return nil
		})
	})
	got := term.NewSet(elems...)
	want := term.NewSet(atom("p1"), atom("p2"))
	if !term.Equal(got, want) {
		t.Fatalf("class for s1 = %s, want %s", got, want)
	}
	if pre.Len() != 1 {
		t.Fatalf("EnumerateBound leaked bindings: %d", pre.Len())
	}
}
