package eval

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// mustCompileRule compiles the one rule of src as a group of its own,
// through Compile.
func mustCompileRule(t *testing.T, src string) *Rule {
	t.Helper()
	prog, err := Compile([][]ast.Rule{parser.MustParseProgram(src).Rules})
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Layer(0)
	return append(l.Grouping, l.Simple...)[0]
}

func atom(s string) term.Term { return term.Atom(s) }

// derives is cr.Derives on a fresh driver.
func derives(t *testing.T, cr *Rule, db *store.DB, f *term.Fact) (ok bool, err error) {
	t.Helper()
	err = NewDriver(Options{}).Do(func(x *Exec) error {
		ok, err = cr.Derives(x, db, f)
		return err
	})
	return ok, err
}

// onDriver runs f on the firing context of a fresh unbounded driver, the
// way maintenance runs an enumeration outside a round.
func onDriver(t *testing.T, st *Stats, f func(x *Exec) error) {
	t.Helper()
	if err := NewDriver(Options{Stats: st}).Do(f); err != nil {
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

// TestRecomputeGroupingClass drives the class table's two recompute paths —
// the bound plan from a class key of variables, the full enumeration
// filtered through find for any other key — and Derives on grouping heads.
func TestRecomputeGroupingClass(t *testing.T) {
	db := store.NewDB()
	db.Insert(term.NewFact("sp", atom("s1"), atom("p1")))
	db.Insert(term.NewFact("sp", atom("s1"), atom("p2")))
	db.Insert(term.NewFact("sp", atom("s2"), atom("p3")))
	s12 := term.NewSet(atom("p1"), atom("p2"))
	// Class keys: the head arguments with the group slot ignored.
	key := func(k term.Term) []term.Term { return []term.Term{k, nil} }
	for _, c := range []struct {
		rule      string
		bindable  bool
		key, miss []term.Term
		want      *term.Set
	}{
		{`supplies(S, <P>) <- sp(S, P).`, true, key(atom("s1")), key(atom("s9")), s12},
		{`boxed(box(S), <P>) <- sp(S, P).`, false,
			key(term.NewCompound("box", atom("s1"))), key(atom("s1")), s12},
		{`all(c0, <P>) <- sp(S, P).`, false, key(atom("c0")), key(atom("c1")),
			term.NewSet(atom("p1"), atom("p2"), atom("p3"))},
	} {
		cr := mustCompileRule(t, c.rule)
		if cr.gIdx != 1 || cr.classBindable != c.bindable {
			t.Fatalf("%s: gIdx = %d, classBindable = %v", c.rule, cr.gIdx, cr.classBindable)
		}
		tab := cr.Classes()
		hit, miss := tab.add(c.key), tab.add(c.miss)
		var st Stats
		onDriver(t, &st, func(x *Exec) error { return cr.recompute(x, db, &tab) })
		if got := hit.take(); got == nil || !term.Equal(got, c.want) {
			t.Errorf("%s: class %s = %v, want %s", c.rule, c.key, got, c.want)
		}
		if got := miss.take(); got != nil {
			t.Errorf("%s: class %s = %s, want no solution", c.rule, c.miss, got)
		}
		if st.Firings == 0 {
			t.Errorf("%s: recompute counted no firings", c.rule)
		}
		f := func(s *term.Set) *term.Fact { return tab.fact(cr.Rule.Head.Pred, hit, s) }
		if ok, err := derives(t, cr, db, f(c.want)); err != nil || !ok {
			t.Errorf("%s: Derives(%s) = %v, %v; want true", c.rule, f(c.want), ok, err)
		}
		if ok, err := derives(t, cr, db, f(term.NewSet(atom("p1")))); err != nil || ok {
			t.Errorf("%s: Derives of a partial class = %v, %v; want false", c.rule, ok, err)
		}
	}
	// A repeated key variable: no body solution has a key whose two
	// positions differ.
	cr := mustCompileRule(t, `pair(S, S, <P>) <- sp(S, P).`)
	ok, err := derives(t, cr, db, term.NewFact("pair", atom("s1"), atom("s2"), term.NewSet(atom("p1"))))
	if err != nil || ok {
		t.Fatalf("Derives(pair(s1, s2, {p1})) = %v, %v; want false", ok, err)
	}
	ok, err = derives(t, cr, db, term.NewFact("pair", atom("s1"), atom("s1"), s12))
	if err != nil || !ok {
		t.Fatalf("Derives(pair(s1, s1, {p1, p2})) = %v, %v; want true", ok, err)
	}
}

// TestOneCompiledRule: every shipped program, admitted, is compiled once.
// Evaluation fires the compiled rules' own variants — each layer's base
// variants are its rules' base variants, and each variant its cascade fires
// is its rule's delta variant for the literal it reads a delta through — and
// the cascade fires one per positive body occurrence of a predicate the
// layer's rules define.  Maintenance fires the same Feeds and Rules.
func TestOneCompiledRule(t *testing.T) {
	files, err := filepath.Glob("../../programs/*.ldl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs: %v", err)
	}
	fed := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		p, err := rewrite.Rewrite(unit.Program)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Admit(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prog.Layering().NumStrata {
			l := prog.Layer(i)
			defined := map[string]bool{}
			for k, cr := range l.Simple {
				defined[cr.Rule.Head.Pred] = true
				if l.vars[k] != cr.base || !slices.Contains(l.round0, cr.base) {
					t.Errorf("%s: layer %d fires a base variant of %s that is not the compiled rule's", file, i, cr.Rule)
				}
			}
			var want []*Variant
			for _, cr := range l.Simple {
				for j, lit := range cr.Rule.Body {
					if !lit.Negated && defined[lit.Pred] {
						want = append(want, cr.Delta(j))
					}
				}
			}
			if !slices.Equal(l.Feeds.vars, want) || !slices.Equal(l.vars[len(l.Simple):], want) {
				t.Errorf("%s: layer %d's cascade fires %d variants, not the %d delta variants of its rules",
					file, i, len(l.Feeds.vars), len(want))
			}
			fed += len(want)
		}
	}
	if fed == 0 {
		t.Fatal("no shipped program has a recursive rule")
	}
}
