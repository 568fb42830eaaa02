package magic

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// youngSrc is the §6 running example, written safely: the paper's
// ¬a(X,Z) with Z appearing nowhere else is expressed through the auxiliary
// hasdesc(X) <- a(X,Z) ("X is someone's ancestor").
const youngSrc = `
	a(X, Y) <- p(X, Y).
	a(X, Y) <- a(X, Z), a(Z, Y).
	sg(X, Y) <- siblings(X, Y).
	sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
	hasdesc(X) <- a(X, Z).
	young(X, <Y>) <- sg(X, Y), not hasdesc(X).
`

// youngData: john is a leaf (no descendants) with sibling jack; mary has a
// child so she is not young.
const youngData = `
	p(adam, mary). p(adam, pat). p(mary, john). p(pat, jack). p(mary, ann).
	p(ann, zoe).
	siblings(mary, pat). siblings(pat, mary).
`

func mustQuery(t *testing.T, src string) parser.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// answer runs the query over p and edb the way the product does:
// PrepareVariant, then one Exec of the query's own constants.
func answer(p *ast.Program, edb *store.DB, q parser.Query, opts eval.Options, v Variant) (*Result, error) {
	pr, err := PrepareVariant(p, q, v)
	if err != nil {
		return nil, err
	}
	return pr.Exec(edb, nil, opts)
}

// answerSrc parses source holding rules, facts and exactly one query and
// answers the query by basic magic sets over an empty database.
func answerSrc(src string, opts eval.Options) (*Result, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(unit.Queries) != 1 {
		return nil, fmt.Errorf("source must contain exactly one query, got %d", len(unit.Queries))
	}
	return answer(unit.Program, store.NewDB(), unit.Queries[0], opts, Basic)
}

// baseline answers the query without magic sets: full bottom-up evaluation
// of p over an empty database, then the query over the model.
func baseline(p *ast.Program, q parser.Query, opts eval.Options) ([][]term.Term, error) {
	db, err := eval.Eval(p, store.NewDB(), opts)
	if err != nil {
		return nil, err
	}
	return eval.SolveCtx(opts.Ctx, q.Body, db)
}

// sameRows reports whether two answer tables hold the same rows.  Both are
// sorted and duplicate-free (eval.Solve), so that is equality in order.
func sameRows(a, b [][]term.Term) bool {
	return slices.EqualFunc(a, b, func(x, y []term.Term) bool { return eval.CompareRows(x, y) == 0 })
}

func TestAdornYoungExample(t *testing.T) {
	p := parser.MustParseProgram(youngSrc)
	ap, err := Adorn(p, mustQuery(t, "young(john, S)"))
	if err != nil {
		t.Fatal(err)
	}
	if ap.QueryAdorn != "bf" {
		t.Fatalf("query adornment = %s", ap.QueryAdorn)
	}
	s := ap.String()
	// The adorned rules of §6: a^bf, sg^bf and the modified young rule.
	for _, want := range []string{
		"a^bf(X, Y) <- a^bf(X, Z), a^bf(Z, Y).",
		"sg^bf(X, Y) <- p(Z1, X), sg^bf(Z1, Z2), p(Z2, Y).",
		"sg^bf(X, Y) <- siblings(X, Y).",
		"hasdesc^b(X) <- a^bf(X, Z).",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("adorned program missing %q:\n%s", want, s)
		}
	}
	// The young rule's sip passes X into ¬hasdesc before sg (the paper's
	// sip for rule 5 evaluates the negated subgoal first).
	if !strings.Contains(s, "young^bf(X, <Y>) <- sg^bf(X, Y), not hasdesc^b(X).") {
		t.Errorf("young rule not adorned as expected:\n%s", s)
	}
}

func TestRewriteYoungExample(t *testing.T) {
	p := parser.MustParseProgram(youngSrc)
	ap, err := Adorn(p, mustQuery(t, "young(john, S)"))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Rewrite(ap)
	if err != nil {
		t.Fatal(err)
	}
	text := rw.Program.String()
	// Counterparts of the paper's rewritten rules (modulo naming):
	for _, want := range []string{
		// 2': magic_a^bf(Z) <- magic_a^bf(X), a^bf(X, Z).
		"magic__a__bf(Z) <- magic__a__bf(X), a__bf(X, Z).",
		// 3'-analogue: magic for the negated subgoal from magic_young.
		"magic__hasdesc__b(X) <- magic__young__bf(X).",
		// 4': magic_sg^bf(Z1) <- magic_sg^bf(X), p(Z1, X).
		"magic__sg__bf(Z1) <- magic__sg__bf(X), p(Z1, X).",
		// 5'-analogue: magic_sg from magic_young (through the sip prefix).
		"magic__sg__bf(X) <- magic__young__bf(X), not hasdesc__b(X).",
		// 6': a^bf(X,Y) <- magic_a^bf(X), p(X,Y).
		"a__bf(X, Y) <- magic__a__bf(X), p(X, Y).",
		// 10': modified young rule, grouping intact.
		"young__bf(X, <Y>) <- magic__young__bf(X), sg__bf(X, Y), not hasdesc__b(X).",
		// 11': the seed from the query.
		"magic__young__bf(john).",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rewritten program missing %q:\n%s", want, text)
		}
	}
}

func TestMagicYoungAnswers(t *testing.T) {
	res, err := answerSrc(youngSrc+youngData+"?- young(john, S).", eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	s := res.Solutions[0][0]
	// john's same-generation set: sg(john, jack) via p(mary,john),
	// sg(mary,pat), p(pat,jack); also sg(john, ann)? ann is john's
	// sibling only through siblings/p chains: p(mary,john), sg(mary,mary)?
	// sg is not reflexive here, so exactly the derived set must match the
	// non-magic baseline (checked below); here we sanity-check jack ∈ S.
	set, ok := s.(*term.Set)
	if !ok || !set.Contains(term.Atom("jack")) {
		t.Fatalf("S = %v, want a set containing jack", s)
	}
	if res.Passes < 2 {
		t.Logf("passes = %d", res.Passes)
	}
}

func TestMagicEquivalence(t *testing.T) {
	// Theorem 4 (differential): magic answers = non-magic answers.
	cases := []struct {
		src   string
		query string
	}{
		{youngSrc + youngData, "young(john, S)"},
		{youngSrc + youngData, "young(mary, S)"}, // mary has descendants: no answer
		{youngSrc + youngData, "young(X, S)"},    // all-free adornment
		{`anc(X, Y) <- par(X, Y).
		  anc(X, Y) <- par(X, Z), anc(Z, Y).
		  par(a, b). par(b, c). par(c, d). par(x, y).`, "anc(a, W)"},
		{`anc(X, Y) <- par(X, Y).
		  anc(X, Y) <- anc(X, Z), par(Z, Y).
		  par(a, b). par(b, c). par(c, d).`, "anc(V, d)"},
		{`sg(X, Y) <- sib(X, Y).
		  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
		  sib(a, b). up(c, a). dn(b, d). up(e, c). dn(d, f).`, "sg(e, Q)"},
		// Sets and grouping below the query.
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
		res, err := answer(unit.Program, store.NewDB(), q, eval.Options{}, Basic)
		if err != nil {
			t.Fatalf("case %d: magic: %v", i, err)
		}
		base, err := baseline(unit.Program, q, eval.Options{})
		if err != nil {
			t.Fatalf("case %d: baseline: %v", i, err)
		}
		if !sameRows(res.Solutions, base) {
			t.Errorf("case %d (%s): magic %v vs baseline %v", i, c.query, res.Solutions, base)
		}
	}
}

func TestMagicRestrictsComputation(t *testing.T) {
	// On a long chain with a selective query, magic must derive far
	// fewer facts than full evaluation.
	var sb strings.Builder
	sb.WriteString(`anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
	`)
	const n = 60
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "par(n%d, n%d).\n", i, i+1)
	}
	p := parser.MustParseProgram(sb.String())
	q := mustQuery(t, fmt.Sprintf("anc(n%d, W)", n-3))

	var magicStats, baseStats eval.Stats
	res, err := answer(p, store.NewDB(), q, eval.Options{Stats: &magicStats}, Basic)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline(p, q, eval.Options{Stats: &baseStats})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(res.Solutions, base) {
		t.Fatalf("answers differ")
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("expected 3 ancestors below n%d, got %d", n-3, len(res.Solutions))
	}
	if magicStats.Derived*5 > baseStats.Derived {
		t.Errorf("magic derived %d facts, baseline %d: expected ≥5x reduction", magicStats.Derived, baseStats.Derived)
	}
}

func TestMagicErrors(t *testing.T) {
	p := parser.MustParseProgram("anc(X, Y) <- par(X, Y). par(a, b).")
	if _, err := Adorn(p, mustQuery(t, "par(a, X)")); err == nil {
		t.Error("querying a base relation should be rejected")
	}
	if _, err := Adorn(p, parser.Query{}); err == nil {
		t.Error("empty query should be rejected")
	}
	q2, _ := parser.ParseQuery("anc(a, X), anc(b, X)")
	if _, err := Adorn(p, q2); err == nil {
		t.Error("multi-literal query should be rejected by Adorn")
	}
}

// TestMagicUsesCompiledAccessPaths: the magic evaluator runs through
// eval.EvalGroupsEach, so the compiled access paths (and their index-hit
// accounting) must be active during magic evaluation on any EDB above the
// store index threshold.
func TestMagicUsesCompiledAccessPaths(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
	`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "par(n%d, n%d).\n", i, i+1)
	}
	sb.WriteString("?- anc(n0, Y).\n")
	var st eval.Stats
	res, err := answerSrc(sb.String(), eval.Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 40 {
		t.Fatalf("got %d solutions, want 40", len(res.Solutions))
	}
	if st.IndexHits == 0 {
		t.Errorf("IndexHits = 0 during magic evaluation, want > 0")
	}
}

func TestMagicSeedAllFree(t *testing.T) {
	// ?- anc(X, Y): all-free adornment degenerates to full evaluation
	// but must still return the right answers.
	res, err := answerSrc(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c).
		?- anc(X, Y).
	`, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("got %d solutions, want 3", len(res.Solutions))
	}
}
