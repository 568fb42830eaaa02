package eval

import (
	"fmt"
	"testing"

	"ldl1/internal/analyze/types"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// fill inserts n two-column facts pred(ki, vi) with distinct first columns.
func fill(db *store.DB, pred string, n int) {
	for i := 0; i < n; i++ {
		db.Insert(term.NewFact(pred, atom(fmt.Sprintf("k%d", i)), atom(fmt.Sprintf("v%d", i))))
	}
}

func TestCostPlanPrefersSmallRelation(t *testing.T) {
	// Two disconnected components: the static planner takes source order
	// (big first) on the 0-bound tie; the cost planner runs the 3-row
	// relation first so the big one is scanned once, not per-row.
	p := parser.MustParseProgram("h(A, B, P) <- big(P, X), small(A, B).")
	db := store.NewDB()
	fill(db, "big", 200)
	fill(db, "small", 3)

	static, err := planBody(p.Rules[0], -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.order[0] != 0 {
		t.Fatalf("static order = %v; source order should lead", static.order)
	}
	cost, err := planBodyDB(p.Rules[0], -1, nil, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost.order[0] != 1 {
		t.Errorf("cost order = %v; small relation should lead", cost.order)
	}
	if !cost.reordered {
		t.Error("cost plan not marked reordered")
	}
	if static.reordered {
		t.Error("static plan marked reordered")
	}
}

func TestCostPlanBoundProbeTieBreak(t *testing.T) {
	// Both literals have one bound column; the static planner ties and
	// takes source order, the cost planner prefers the smaller estimate.
	p := parser.MustParseProgram("h(X, Y, Z) <- a(X, Y), b(X, Z).")
	db := store.NewDB()
	fill(db, "a", 1000)
	fill(db, "b", 10)
	bound := map[term.Var]bool{term.Var("X"): true}

	static, err := planBody(p.Rules[0], -1, bound)
	if err != nil {
		t.Fatal(err)
	}
	if static.order[0] != 0 {
		t.Fatalf("static order = %v", static.order)
	}
	cost, err := planBodyDB(p.Rules[0], -1, bound, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost.order[0] != 1 {
		t.Errorf("cost order = %v; smaller relation should win the tie", cost.order)
	}
}

func TestCompileBodyDBExposesEstimates(t *testing.T) {
	p := parser.MustParseProgram("h(A, B, P) <- big(P, X), small(A, B).")
	db := store.NewDB()
	fill(db, "big", 200)
	fill(db, "small", 3)

	plan, err := CompileBodyDB(p.Rules[0], -1, nil, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reordered {
		t.Error("plan not marked reordered")
	}
	if len(plan.Est) != 2 {
		t.Fatalf("Est = %v", plan.Est)
	}
	if plan.Order[0] != 1 || plan.Est[0] != 3 {
		t.Errorf("step 0: order=%d est=%d; want small first with est 3", plan.Order[0], plan.Est[0])
	}
	if plan.Est[1] != 200 {
		t.Errorf("step 1 est = %d; want 200 (full scan of big)", plan.Est[1])
	}
	// The static CompileBody carries no estimates.
	sp, err := CompileBody(p.Rules[0], -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Est != nil || sp.Reordered {
		t.Errorf("static plan carries cost data: est=%v reordered=%v", sp.Est, sp.Reordered)
	}
}

func TestEstimateUsesDistinctIndexStat(t *testing.T) {
	// 128 facts over 4 distinct first-column values; once the index exists,
	// the estimate is n/distinct = 32 rather than the blind n>>3 = 16.
	db := store.NewDB()
	rel := db.Rel("skew")
	for i := 0; i < 128; i++ {
		rel.Insert(term.NewFact("skew", atom(fmt.Sprintf("g%d", i%4)), atom(fmt.Sprintf("v%d", i))))
	}
	rel.LookupCols([]int{0}, []term.Term{atom("g0")}) // builds the index

	est, n := estimate(db, "skew", []int{0}, 2)
	if n != 128 {
		t.Fatalf("n = %d", n)
	}
	if est != 32 {
		t.Errorf("est = %d; want 128/4 = 32", est)
	}
}

func TestEstimateFallbacks(t *testing.T) {
	db := store.NewDB()
	fill(db, "r", 100)
	if est, n := estimate(db, "missing", nil, 2); n != unknownCard || est != unknownCard {
		t.Errorf("missing relation: est=%d n=%d", est, n)
	}
	if est, _ := estimate(db, "r", []int{0, 1}, 2); est != 1 {
		t.Errorf("all-bound: est=%d; want 1", est)
	}
	if est, _ := estimate(db, "r", nil, 2); est != 100 {
		t.Errorf("unbound: est=%d; want full size", est)
	}
	// One bound column, no index yet: n >> 3.
	if est, _ := estimate(db, "r", []int{0}, 2); est != 12 {
		t.Errorf("heuristic: est=%d; want 100>>3 = 12", est)
	}
}

// typedEnv infers the type environment of a small program for planner tests.
func typedEnv(t *testing.T, src string) *types.Env {
	t.Helper()
	p := parser.MustParseProgram(src)
	return types.Infer(p, nil, types.Options{}).Env
}

func TestTypedPlanSchedulesDisjointProbeFirst(t *testing.T) {
	// lbl's column is always an atom and num's always an int, so in
	// `lbl(Y), num(Y)` the num probe can never match.  The typed planner
	// prices it at zero and runs it first; the join then short-circuits
	// without ever scanning lbl.
	env := typedEnv(t, `
		lbl(a). lbl(b).
		num(1). num(2).
	`)
	p := parser.MustParseProgram("out(Y) <- lbl(Y), num(Y).")
	db := store.NewDB()
	for i := 0; i < 10; i++ {
		db.Insert(term.NewFact("lbl", atom(fmt.Sprintf("a%d", i))))
	}
	for i := 0; i < 1000; i++ {
		db.Insert(term.NewFact("num", term.Int(i)))
	}
	plain, err := planBodyDB(p.Rules[0], -1, nil, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.order[0] != 0 {
		t.Fatalf("untyped order = %v; smaller lbl should lead", plain.order)
	}
	typed, err := planBodyDB(p.Rules[0], -1, nil, db, env)
	if err != nil {
		t.Fatal(err)
	}
	if typed.order[0] != 1 {
		t.Errorf("typed order = %v; disjoint num probe should lead", typed.order)
	}
	if typed.est[0] != 0 {
		t.Errorf("typed est[0] = %d; a disjoint probe costs 0", typed.est[0])
	}
}

func TestTypedPlanPricesEmptyPredicateZero(t *testing.T) {
	// ghost/1 is defined but its only rule contains a type clash, so the
	// inference proves it empty.  Its relation is absent from the database
	// (unknownCard would price it above the 10-row src), yet the typed
	// planner runs the ghost probe first: zero candidate facts, the join
	// stops immediately.
	env := typedEnv(t, `
		num(1).
		ghost(X) <- num(X), X = a.
	`)
	p := parser.MustParseProgram("out(X, Y) <- src(X), ghost(Y).")
	db := store.NewDB()
	for i := 0; i < 10; i++ {
		db.Insert(term.NewFact("src", term.Int(i)))
	}
	plain, err := planBodyDB(p.Rules[0], -1, nil, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.order[0] != 0 {
		t.Fatalf("untyped order = %v; 10-row src beats unknownCard", plain.order)
	}
	typed, err := planBodyDB(p.Rules[0], -1, nil, db, env)
	if err != nil {
		t.Fatal(err)
	}
	if typed.order[0] != 1 {
		t.Errorf("typed order = %v; provably empty ghost should lead", typed.order)
	}
	if typed.est[0] != 0 {
		t.Errorf("typed est[0] = %d; an empty predicate costs 0", typed.est[0])
	}
}

func TestTypedPlanPrefersIntKeyedProbe(t *testing.T) {
	// With X bound after seed, u(X, _) and ki(X, _) tie on estimate, bound
	// columns, and cardinality; the untyped tie-break keeps source order
	// (u), while the typed planner prefers ki, whose key column is
	// statically int and thus served by the compact int-keyed index path.
	env := typedEnv(t, "ki(1, 2).")
	p := parser.MustParseProgram("out(X, Z, Y) <- seed(X), u(X, Z), ki(X, Y).")
	db := store.NewDB()
	db.Insert(term.NewFact("seed", term.Int(0)))
	for i := 0; i < 100; i++ {
		db.Insert(term.NewFact("u", term.Int(i%10), term.Int(i)))
		db.Insert(term.NewFact("ki", term.Int(i%10), term.Int(i)))
	}
	plain, err := planBodyDB(p.Rules[0], -1, nil, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.order[1] != 1 {
		t.Fatalf("untyped order = %v; source order should win the tie", plain.order)
	}
	typed, err := planBodyDB(p.Rules[0], -1, nil, db, env)
	if err != nil {
		t.Fatal(err)
	}
	if typed.order[1] != 2 {
		t.Errorf("typed order = %v; int-keyed ki should win the tie", typed.order)
	}
}

func TestNoReorderOptionPinsStaticOrder(t *testing.T) {
	// The same program computes the same model either way, but only the
	// cost-ordered run reports reordered plans and fewer full scans.
	src := `
		h(A, B, P) <- big(P, X), small(A, B).
	`
	p := parser.MustParseProgram(src)
	db := store.NewDB()
	fill(db, "big", 200)
	fill(db, "small", 3)

	var scost, sstatic Stats
	cost, err := Eval(p, db, Options{Stats: &scost})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Eval(p, db, Options{Stats: &sstatic, NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Equal(static) {
		t.Fatal("cost-ordered evaluation changed the model")
	}
	if scost.PlansReordered == 0 {
		t.Error("cost run reports no reordered plans")
	}
	if sstatic.PlansReordered != 0 {
		t.Errorf("static run reports %d reordered plans", sstatic.PlansReordered)
	}
	if scost.FullScans >= sstatic.FullScans {
		t.Errorf("full scans: cost=%d static=%d; reordering should reduce them", scost.FullScans, sstatic.FullScans)
	}
	if scost.EstimatedRows == 0 {
		t.Error("cost run reports no estimated rows")
	}
}
