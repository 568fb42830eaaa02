package rewrite

import (
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// evalSrc parses, rewrites LDL1.5 constructs, evaluates, and restricts the
// model to the original program's predicates.
func evalSrc(t *testing.T, src string) *store.DB {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ast.CheckWellFormed(rp); err != nil {
		t.Fatalf("rewritten program ill-formed: %v\n%s", err, rp)
	}
	db, err := eval.Eval(rp, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatalf("%v\nrewritten program:\n%s", err, rp)
	}
	return restrict(db, p.Preds())
}

// restrict returns the facts of db whose predicates appear in preds —
// used to compare a transformed program's model with the original's
// ("restricted to the predicates mentioned in P", §3.3, §5).
func restrict(db *store.DB, preds map[string]bool) *store.DB {
	out := store.NewDB()
	out.UseIndexes = db.UseIndexes
	for _, f := range db.Facts() {
		if preds[f.Pred] {
			out.Insert(f)
		}
	}
	return out
}

func wantFacts(t *testing.T, db *store.DB, pred string, want ...string) {
	t.Helper()
	rel := db.Rel(pred)
	if rel.Len() != len(want) {
		t.Errorf("%s has %d tuples, want %d:\n%s", pred, rel.Len(), len(want), db)
	}
	have := map[string]bool{}
	for _, f := range rel.All() {
		have[f.String()] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing %s; have:\n%s", w, db)
		}
	}
}

// teacherSrc is the §4.2 running relation r(Teacher, Student, Class, Day).
const teacherSrc = `
	r(t1, s1, c1, mon). r(t1, s1, c2, tue). r(t1, s2, c1, mon). r(t2, s1, c3, wed).
`

func TestHeadDistribution(t *testing.T) {
	// (T, <S>, <D>): per teacher, the set of their students and the set
	// of days on which they teach (§4.2 example 1).
	db := evalSrc(t, teacherSrc+`
		out(T, <S>, <D>) <- r(T, S, C, D).
	`)
	wantFacts(t, db, "out",
		"out(t1, {s1, s2}, {mon, tue})",
		"out(t2, {s1}, {wed})",
	)
}

func TestHeadNestedGrouping(t *testing.T) {
	// (T, <h(S, <D>)>): per teacher, tuples of student and the set of
	// days on which the student takes some class — with anyone (§4.2
	// example 2).
	db := evalSrc(t, teacherSrc+`
		out(T, <h(S, <D>)>) <- r(T, S, C, D).
	`)
	wantFacts(t, db, "out",
		"out(t1, {h(s1, {mon, tue, wed}), h(s2, {mon})})",
		"out(t2, {h(s1, {mon, tue, wed})})",
	)
}

func TestHeadTupleKeyNestedGrouping(t *testing.T) {
	// ((T,S), <(C, <D>)>): per teacher-student pair, tuples of class and
	// the set of days this class is taught by someone (§4.2 example 3).
	db := evalSrc(t, teacherSrc+`
		out((T, S), <(C, <D>)>) <- r(T, S, C, D).
	`)
	wantFacts(t, db, "out",
		"out(tuple(t1, s1), {tuple(c1, {mon}), tuple(c2, {tue})})",
		"out(tuple(t1, s2), {tuple(c1, {mon})})",
		"out(tuple(t2, s1), {tuple(c3, {wed})})",
	)
}

func TestHeadGroupedConstant(t *testing.T) {
	db := evalSrc(t, `
		q(1). q(2).
		p(X, <a>) <- q(X).
	`)
	wantFacts(t, db, "p", "p(1, {a})", "p(2, {a})")
}

func TestHeadNestingWithoutGrouping(t *testing.T) {
	// A head term g(Y, <D>) NOT enclosed in <> uses the Nesting rule:
	// one fact per Z̄ with the grouped subterm materialized.
	db := evalSrc(t, teacherSrc+`
		out(T, h(T, <D>)) <- r(T, S, C, D).
	`)
	wantFacts(t, db, "out",
		"out(t1, h(t1, {mon, tue}))",
		"out(t2, h(t2, {wed}))",
	)
}

func TestCoreProgramUnchanged(t *testing.T) {
	src := `
		parent(a, b). parent(b, c).
		anc(X, Y) <- parent(X, Y).
		anc(X, Y) <- parent(X, Z), anc(Z, Y).
		group(X, <Y>) <- anc(X, Y).
	`
	p := parser.MustParseProgram(src)
	if NeedsRewrite(p) {
		t.Fatal("core program should not need rewriting")
	}
	rp, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Rules) != len(p.Rules) {
		t.Fatalf("core program changed: %s", rp)
	}
}

func TestBodyPatternSimple(t *testing.T) {
	// p(<X>) in a body: X ranges over the elements of p's set argument.
	db := evalSrc(t, `
		p({1, 2}). p({7}).
		q(X) <- p(<X>).
	`)
	wantFacts(t, db, "q", "q(1)", "q(2)", "q(7)")
}

func TestBodyPatternUniformStructure(t *testing.T) {
	// §4.1: p(<<X>>) matches p({{1,2},{3},{4,5}}) — X ranges over inner
	// elements — but NOT p({{1,2},3,{4,5}}) because 3 is not a set.
	db := evalSrc(t, `
		pa({{1, 2}, {3}, {4, 5}}).
		oka(X) <- pa(<<X>>).
	`)
	wantFacts(t, db, "oka", "oka(1)", "oka(2)", "oka(3)", "oka(4)", "oka(5)")

	db2 := evalSrc(t, `
		pb({{1, 2}, 3, {4, 5}}).
		okb(X) <- pb(<<X>>).
	`)
	wantFacts(t, db2, "okb") // none: 3 violates the uniform structure
}

func TestBodyPatternMixedRelations(t *testing.T) {
	// Both conforming and non-conforming sets in one relation: only the
	// conforming sets contribute.
	db := evalSrc(t, `
		p({{1}, {2}}).
		p({{9}, 8}).
		q(X) <- p(<<X>>).
	`)
	wantFacts(t, db, "q", "q(1)", "q(2)")
}

func TestBodyPatternInsideCompound(t *testing.T) {
	// Elements shaped f(K, <V>): K binds per element, V per inner set.
	db := evalSrc(t, `
		p({f(a, {1, 2}), f(b, {3})}).
		kv(K, V) <- p(<f(K, <V>)>).
	`)
	wantFacts(t, db, "kv", "kv(a, 1)", "kv(a, 2)", "kv(b, 3)")
}

func TestNegationElimination(t *testing.T) {
	src := `
		parent(a, b). parent(b, c). parent(c, d).
		person(a). person(b). person(c). person(d).
		anc(X, Y) <- parent(X, Y).
		anc(X, Y) <- parent(X, Z), anc(Z, Y).
		excl(X, Y, Z) <- anc(X, Y), not anc(X, Z), person(Z).
	`
	p := parser.MustParseProgram(src)
	pos, err := EliminateNegation(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pos.IsPositive() {
		t.Fatalf("transformed program still has negation:\n%s", pos)
	}
	if _, err := layering.Stratify(pos); err != nil {
		t.Fatalf("transformed program is not admissible: %v\n%s", err, pos)
	}
	orig, err := eval.Eval(p, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.Eval(pos, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restrict(got, p.Preds()).Equal(restrict(orig, p.Preds())) {
		t.Errorf("models differ after negation elimination:\n--- original\n%s\n--- transformed (restricted)\n%s",
			restrict(orig, p.Preds()), restrict(got, p.Preds()))
	}
}

func TestNegationEliminationMultipleNegations(t *testing.T) {
	src := `
		e(1). e(2). e(3). e(4).
		small(1). small(2).
		big(4).
		mid(X) <- e(X), not small(X), not big(X).
	`
	p := parser.MustParseProgram(src)
	pos, err := EliminateNegation(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pos.IsPositive() {
		t.Fatalf("still negative:\n%s", pos)
	}
	got, err := eval.Eval(pos, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.Eval(p, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restrict(got, p.Preds()).Equal(restrict(want, p.Preds())) {
		t.Errorf("mid relation differs:\n%s\nvs\n%s", restrict(got, p.Preds()), restrict(want, p.Preds()))
	}
	wantFacts(t, restrict(got, p.Preds()), "mid", "mid(3)")
}

func TestNegationEliminationGroundLiteral(t *testing.T) {
	src := `
		e(1). e(2).
		flag(off).
		go(X) <- e(X), not flag(on).
	`
	p := parser.MustParseProgram(src)
	pos, err := EliminateNegation(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.Eval(pos, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantFacts(t, restrict(got, p.Preds()), "go", "go(1)", "go(2)")
}

func TestRewriteKeepsWellFormedAdmissible(t *testing.T) {
	srcs := []string{
		teacherSrc + "out(T, <h(S, <D>)>) <- r(T, S, C, D).",
		teacherSrc + "out(T, <S>, <D>) <- r(T, S, C, D).",
		"p({1, 2}). q(X) <- p(<X>).",
		"pa({{1}, {2}}). oka(X) <- pa(<<X>>).",
	}
	for i, src := range srcs {
		p := parser.MustParseProgram(src)
		rp, err := Rewrite(p)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if err := ast.CheckWellFormed(rp); err != nil {
			t.Errorf("program %d ill-formed after rewrite: %v", i, err)
		}
		if _, err := layering.Stratify(rp); err != nil {
			t.Errorf("program %d not admissible after rewrite: %v\n%s", i, err, rp)
		}
	}
}
