package magic

import (
	"fmt"
	"strings"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

func TestSupplementaryEquivalence(t *testing.T) {
	cases := []struct {
		src   string
		query string
	}{
		{youngSrc + youngData, "young(john, S)"},
		{youngSrc + youngData, "young(mary, S)"},
		{youngSrc + youngData, "young(X, S)"},
		{`anc(X, Y) <- par(X, Y).
		  anc(X, Y) <- par(X, Z), anc(Z, Y).
		  par(a, b). par(b, c). par(c, d).`, "anc(a, W)"},
		{`sg(X, Y) <- sib(X, Y).
		  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
		  sib(a, b). up(c, a). dn(b, d). up(e, c). dn(d, f).`, "sg(e, Q)"},
		{`sp(s1, p1). sp(s1, p2). sp(s2, p3).
		  parts(S, <P>) <- sp(S, P).
		  bigcount(S, Ps) <- parts(S, Ps), member(p1, Ps).`, "bigcount(s1, R)"},
	}
	for i, c := range cases {
		unit, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		q := mustQuery(t, c.query)
		sup, err := answer(unit.Program, store.NewDB(), q, eval.Options{}, Supplementary)
		if err != nil {
			t.Fatalf("case %d: supplementary: %v", i, err)
		}
		base, err := baseline(unit.Program, q, eval.Options{})
		if err != nil {
			t.Fatalf("case %d: baseline: %v", i, err)
		}
		if !sameRows(sup.Solutions, base) {
			t.Errorf("case %d (%s): supplementary %v vs baseline %v", i, c.query, sup.Solutions, base)
		}
		basic, err := answer(unit.Program, store.NewDB(), q, eval.Options{}, Basic)
		if err != nil {
			t.Fatalf("case %d: basic: %v", i, err)
		}
		if !sameRows(sup.Solutions, basic.Solutions) {
			t.Errorf("case %d: supplementary vs basic disagree", i)
		}
	}
}

func TestSupplementaryStructure(t *testing.T) {
	p := parser.MustParseProgram(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b).
	`)
	ap, err := Adorn(p, mustQuery(t, "anc(a, W)"))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RewriteSupplementary(ap)
	if err != nil {
		t.Fatal(err)
	}
	text := rw.Program.String()
	// The chain: sup_0 from the magic seed, magic for the recursive
	// subgoal from a supplementary, and the head from the last sup.
	for _, want := range []string{
		"<- magic__anc__bf(X).",
		"magic__anc__bf(Z) <- sup__",
		"anc__bf(X, Y) <- sup__",
		"magic__anc__bf(a).",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("supplementary program missing %q:\n%s", want, text)
		}
	}
	// Supplementary predicates carry only live variables: the first
	// chain of the recursive rule keeps X and Z (Y comes later).
	if strings.Contains(text, "sup__1_2(X, Z, Y)") {
		t.Errorf("dead variables in supplementary:\n%s", text)
	}
}

func TestSupplementarySavesPrefixWork(t *testing.T) {
	// A rule with an expensive shared prefix used by two subgoal magic
	// rules: the supplementary variant evaluates it once.
	var sb strings.Builder
	sb.WriteString(`
		r(X, Y) <- e(X, A), e(A, B), e(B, Y).
		path(X, Y) <- r(X, Y).
		path(X, Y) <- r(X, Z), path(Z, Y).
	`)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "e(v%d, v%d).\n", i, i+1)
	}
	p := parser.MustParseProgram(sb.String())
	q := mustQuery(t, "path(v0, W)")
	var basicStats, supStats eval.Stats
	basic, err := answer(p, store.NewDB(), q, eval.Options{Stats: &basicStats}, Basic)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := answer(p, store.NewDB(), q, eval.Options{Stats: &supStats}, Supplementary)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(basic.Solutions, sup.Solutions) {
		t.Fatalf("variants disagree: %d vs %d solutions", len(basic.Solutions), len(sup.Solutions))
	}
	if len(sup.Solutions) != 10 {
		t.Fatalf("path(v0, W) should have 10 answers, got %d", len(sup.Solutions))
	}
	t.Logf("firings: basic=%d supplementary=%d", basicStats.Firings, supStats.Firings)
}
