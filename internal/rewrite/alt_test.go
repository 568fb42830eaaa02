package rewrite

import (
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// evalWithSem rewrites under the chosen §4.2 semantics and evaluates.
func evalWithSem(t *testing.T, src string, sem HeadSemantics) *store.DB {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RewriteWithSemantics(p, sem)
	if err != nil {
		t.Fatal(err)
	}
	db, err := eval.Eval(rp, store.NewDB(), eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, rp)
	}
	return restrict(db, p.Preds())
}

func TestAlternativeSemantics(t *testing.T) {
	// §4.2 (ii) vs (ii)': under the standard reading, the inner day-set
	// of <h(S, <D>)> collects the student's days with ANY teacher; under
	// the alternative, the outer key T joins the grouping, so it collects
	// only the days with THIS teacher.
	src := teacherSrc + `
		out(T, <h(S, <D>)>) <- r(T, S, C, D).
	`
	std := evalWithSem(t, src, StandardSemantics)
	wantFacts(t, std, "out",
		"out(t1, {h(s1, {mon, tue, wed}), h(s2, {mon})})",
		"out(t2, {h(s1, {mon, tue, wed})})",
	)
	alt := evalWithSem(t, src, AlternativeSemantics)
	wantFacts(t, alt, "out",
		"out(t1, {h(s1, {mon, tue}), h(s2, {mon})})",
		"out(t2, {h(s1, {wed})})",
	)
}

func TestAlternativeSemanticsSameWhenNoOuterVars(t *testing.T) {
	// With no outer head variables the two semantics coincide.
	src := `
		q(a, 1). q(a, 2). q(b, 3).
		all(<h(K, <V>)>) <- q(K, V).
	`
	std := evalWithSem(t, src, StandardSemantics)
	alt := evalWithSem(t, src, AlternativeSemantics)
	if !std.Equal(alt) {
		t.Errorf("semantics should coincide:\n--- standard\n%s\n--- alternative\n%s", std, alt)
	}
	wantFacts(t, std, "all", "all({h(a, {1, 2}), h(b, {3})})")
}
