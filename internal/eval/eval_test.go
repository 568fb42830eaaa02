package eval

import (
	"context"
	"fmt"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

func run(t *testing.T, src string, strat Strategy) *store.DB {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Eval(p, store.NewDB(), Options{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func hasFact(t *testing.T, db *store.DB, src string) {
	t.Helper()
	f := mustFact(t, src)
	if !db.Contains(f) {
		t.Errorf("missing fact %s", f)
	}
}

func noFact(t *testing.T, db *store.DB, src string) {
	t.Helper()
	f := mustFact(t, src)
	if db.Contains(f) {
		t.Errorf("unexpected fact %s", f)
	}
}

func mustFact(t *testing.T, src string) *term.Fact {
	t.Helper()
	p, err := parser.ParseProgram(src + ".")
	if err != nil {
		t.Fatalf("fact %q: %v", src, err)
	}
	f := p.Rules[0].Head
	args := f.Args
	fact := term.NewFact(f.Pred, args...)
	return fact
}

const ancestorSrc = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(a, b). parent(b, c). parent(c, d). parent(b, e).
`

func TestAncestorBothStrategies(t *testing.T) {
	for name, strat := range map[string]Strategy{"naive": Naive, "seminaive": SemiNaive} {
		t.Run(name, func(t *testing.T) {
			db := run(t, ancestorSrc, strat)
			for _, f := range []string{
				"ancestor(a, b)", "ancestor(a, c)", "ancestor(a, d)", "ancestor(a, e)",
				"ancestor(b, c)", "ancestor(b, d)", "ancestor(b, e)", "ancestor(c, d)",
			} {
				hasFact(t, db, f)
			}
			noFact(t, db, "ancestor(d, a)")
			noFact(t, db, "ancestor(e, c)")
			if n := db.Rel("ancestor").Len(); n != 8 {
				t.Errorf("ancestor has %d tuples, want 8", n)
			}
		})
	}
}

func TestNaiveSemiNaiveAgree(t *testing.T) {
	srcs := []string{
		ancestorSrc,
		// Same generation with two recursive occurrences.
		`sg(X, Y) <- sib(X, Y).
		 sg(X, Y) <- up(X, X1), sg(X1, Y1), up(Y, Y1).
		 sib(a1, a2). up(b1, a1). up(b2, a2). up(c1, b1). up(c2, b2).`,
		// Mutual recursion.
		`even(X, Y) <- edge(X, Y).
		 even(X, Y) <- odd(X, Z), edge(Z, Y).
		 odd(X, Y) <- even(X, Z), edge(Z, Y).
		 edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 1).`,
	}
	for i, src := range srcs {
		a := run(t, src, Naive)
		b := run(t, src, SemiNaive)
		if !a.Equal(b) {
			t.Errorf("program %d: naive and semi-naive disagree:\n--- naive\n%s\n--- semi-naive\n%s", i, a, b)
		}
	}
}

func TestExclAncestorNegation(t *testing.T) {
	src := ancestorSrc + `
		person(a). person(b). person(c). person(d). person(e).
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
	`
	db := run(t, src, SemiNaive)
	// a is an ancestor of b, and a is not an ancestor of a.
	hasFact(t, db, "excl_ancestor(a, b, a)")
	// but a IS an ancestor of d, so (a, b, d) must be absent.
	noFact(t, db, "excl_ancestor(a, b, d)")
	hasFact(t, db, "excl_ancestor(c, d, e)")
}

func TestBookDealSetEnumeration(t *testing.T) {
	// §1: sets of up to three book titles with total price < 100;
	// duplicate titles are eliminated during set construction.
	src := `
		book(logic, 30). book(sets, 40). book(magic, 60). book(datalog, 20).
		book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < 100.
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "book_deal({logic, sets, datalog})")
	// X=Y=Z yields singletons: {logic} from 30+30+30 < 100.
	hasFact(t, db, "book_deal({logic})")
	hasFact(t, db, "book_deal({datalog})")
	// Doublets arise when two of the three coincide.
	hasFact(t, db, "book_deal({logic, datalog})")
	// magic alone costs 60; 3*60 = 180 ≥ 100, so no {magic} singleton.
	noFact(t, db, "book_deal({magic})")
	noFact(t, db, "book_deal({logic, sets, magic})")
}

func TestSupplierPartsGrouping(t *testing.T) {
	// §1 grouping: all parts supplied by a supplier grouped with the
	// supplier number.
	src := `
		sp(s1, p1). sp(s1, p2). sp(s2, p1). sp(s3, p3). sp(s1, p2).
		supplies(S, <P>) <- sp(S, P).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "supplies(s1, {p1, p2})")
	hasFact(t, db, "supplies(s2, {p1})")
	hasFact(t, db, "supplies(s3, {p3})")
	if n := db.Rel("supplies").Len(); n != 3 {
		t.Errorf("supplies has %d tuples, want 3", n)
	}
	// The group never contains a subset tuple: no supplies(s1, {p1}).
	noFact(t, db, "supplies(s1, {p1})")
}

// partCostSrc is the §1 part-cost program, verbatim up to concrete syntax.
const partCostSrc = `
	p(1, 2). p(1, 7). p(2, 3). p(2, 4). p(3, 5). p(3, 6).
	q(4, 20). q(5, 10). q(6, 15). q(7, 200).
	part(P, <S>) <- p(P, S).
	tc({X}, C) <- q(X, C).
	tc({X}, C) <- part(X, S), tc(S, C).
	tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
	result(X, C) <- tc(S, C), member(X, S), S = {X}.
`

func TestPartCostProgram(t *testing.T) {
	db := run(t, partCostSrc, SemiNaive)
	// Grouping output quoted in the paper.
	hasFact(t, db, "part(1, {2, 7})")
	hasFact(t, db, "part(2, {3, 4})")
	hasFact(t, db, "part(3, {5, 6})")
	// tc tuples quoted in the paper.
	hasFact(t, db, "tc({3}, 25)")
	hasFact(t, db, "tc({2}, 45)")
	hasFact(t, db, "tc({1}, 245)")
	// Elementary part costs.
	hasFact(t, db, "tc({4}, 20)")
	hasFact(t, db, "tc({7}, 200)")
	// Final result relation: cost of every part, elementary or aggregate.
	for part, cost := range map[int]int{1: 245, 2: 45, 3: 25, 4: 20, 5: 10, 6: 15, 7: 200} {
		hasFact(t, db, fmt.Sprintf("result(%d, %d)", part, cost))
	}
	if n := db.Rel("result").Len(); n != 7 {
		t.Errorf("result has %d tuples, want 7", n)
	}
}

func TestPartCostNaiveAgrees(t *testing.T) {
	a := run(t, partCostSrc, Naive)
	b := run(t, partCostSrc, SemiNaive)
	if !a.Equal(b) {
		t.Fatal("naive and semi-naive disagree on the part-cost program")
	}
}

func TestGroupingEmptyBodyNoFact(t *testing.T) {
	// When the set of elements to group is empty no head fact is derived
	// (§2.2: the formula is then true without p holding anywhere).
	src := `
		q(1).
		r(X, <Y>) <- q(X), s(X, Y).
		s(2, 3).
	`
	db := run(t, src, SemiNaive)
	noFact(t, db, "r(1, {})")
	if db.Rel("r").Len() != 0 {
		t.Errorf("r should be empty, got %s", db.String())
	}
}

func TestGroupingPartitionsByOtherHeadVars(t *testing.T) {
	// r(Teacher, Student, Class, Day): group days per (teacher, student).
	src := `
		r(t1, s1, c1, mon). r(t1, s1, c2, tue). r(t1, s2, c1, mon). r(t2, s1, c3, wed).
		td(T, S, <D>) <- r(T, S, C, D).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "td(t1, s1, {mon, tue})")
	hasFact(t, db, "td(t1, s2, {mon})")
	hasFact(t, db, "td(t2, s1, {wed})")
	if db.Rel("td").Len() != 3 {
		t.Errorf("td = %s", db.String())
	}
}

func TestGroupedVarAlsoInHead(t *testing.T) {
	// §2.2 note: when X appears both plain and grouped, groups are
	// singletons.
	src := `
		q(1). q(2).
		p(X, <X>) <- q(X).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "p(1, {1})")
	hasFact(t, db, "p(2, {2})")
	if db.Rel("p").Len() != 2 {
		t.Errorf("p = %s", db.String())
	}
}

func TestMemberAndUnionBuiltins(t *testing.T) {
	src := `
		s({1, 2, 3}).
		elem(X) <- s(S), member(X, S).
		pair(A, B) <- s(S), union(A, B, S), A /= {}, B /= {}.
		combined(U) <- s(S), t(T), union(S, T, U).
		t({3, 4}).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "elem(1)")
	hasFact(t, db, "elem(2)")
	hasFact(t, db, "elem(3)")
	if db.Rel("elem").Len() != 3 {
		t.Errorf("elem = %s", db.String())
	}
	hasFact(t, db, "combined({1, 2, 3, 4})")
	// union(A,B,{1,2,3}) enumerations include overlapping covers.
	hasFact(t, db, "pair({1}, {2, 3})")
	hasFact(t, db, "pair({1, 2}, {2, 3})")
	hasFact(t, db, "pair({1, 2, 3}, {1, 2, 3})")
	noFact(t, db, "pair({1}, {2})")
}

func TestScons(t *testing.T) {
	src := `
		base({1, 2}).
		extended(S2) <- base(S), S2 = scons(9, S).
		redundant(S2) <- base(S), S2 = scons(1, S).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "extended({1, 2, 9})")
	hasFact(t, db, "redundant({1, 2})")
}

func TestNestedGroupingAcrossLayers(t *testing.T) {
	// §5 proposition's program: q(1) ⇒ p({1}) ⇒ w({{1}}).
	src := `
		q(1).
		p(<X>) <- q(X).
		w(<X>) <- p(X).
	`
	db := run(t, src, SemiNaive)
	hasFact(t, db, "p({1})")
	hasFact(t, db, "w({{1}})")
}

func TestStats(t *testing.T) {
	p := parser.MustParseProgram(ancestorSrc)
	var naive, semi Stats
	if _, err := Eval(p, store.NewDB(), Options{Strategy: Naive, Stats: &naive}); err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(p, store.NewDB(), Options{Strategy: SemiNaive, Stats: &semi}); err != nil {
		t.Fatal(err)
	}
	if naive.Derived != semi.Derived {
		t.Errorf("derived counts differ: naive %d vs semi-naive %d", naive.Derived, semi.Derived)
	}
	if semi.Firings >= naive.Firings {
		t.Errorf("semi-naive should fire fewer rule bodies: %d vs %d", semi.Firings, naive.Firings)
	}
}

func TestSolveQuery(t *testing.T) {
	db := run(t, ancestorSrc, SemiNaive)
	q, err := parser.ParseQuery("ancestor(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	sols, err := SolveLimitsCtx(context.Background(), q.Body, db, SolveLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("got %d solutions: %v", len(sols), sols)
	}
	q2, _ := parser.ParseQuery("ancestor(a, d), ancestor(b, d)")
	sols2, err := SolveLimitsCtx(context.Background(), q2.Body, db, SolveLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols2) != 1 {
		t.Fatalf("conjunctive ground query: %v", sols2)
	}
}

func TestInadmissibleRejected(t *testing.T) {
	p := parser.MustParseProgram(`
		int(0).
		int(s(X)) <- int(X).
		even(s(X)) <- int(X), not even(X).
	`)
	if _, err := Eval(p, store.NewDB(), Options{}); err == nil {
		t.Fatal("inadmissible program must be rejected")
	}
}

func TestIndexingOffSameResults(t *testing.T) {
	p := parser.MustParseProgram(partCostSrc)
	noIdx := store.NewDB()
	noIdx.UseIndexes = false
	a, err := Eval(p, noIdx, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(p, store.NewDB(), Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("indexing must not change results")
	}
}
