package eval

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// planBody plans r once from a fresh shape: the plan of the order chosen
// against db (nil: static), and whether the cost model departed from the
// static choice.
func planBody(r ast.Rule, forced int, pre map[term.Var]bool, db *store.DB) (*bodyPlan, bool, error) {
	return newVariant(r, r.Head, r.Body, forced, pre).plan(db)
}

func planOf(t *testing.T, src string, preBound ...term.Var) []int {
	t.Helper()
	p := parser.MustParseProgram(src)
	bound := map[term.Var]bool{}
	for _, v := range preBound {
		bound[v] = true
	}
	plan, _, err := planBody(p.Rules[0], -1, bound, nil)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return plan.order
}

func TestPlanTestsFirst(t *testing.T) {
	// With X pre-bound, the fully bound negated literal runs before the
	// generator (it is the cheapest pruning step).
	order := planOf(t, "h(X, Y) <- e(X, Y), not f(X).", "X")
	if order[0] != 1 {
		t.Errorf("order = %v; negated test should come first", order)
	}
}

func TestPlanBuiltinsAfterBinding(t *testing.T) {
	// partition needs S1, S2 or S bound; both tc literals must precede it.
	order := planOf(t, "tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.")
	pos := map[int]int{}
	for i, idx := range order {
		pos[idx] = i
	}
	if !(pos[1] < pos[0] && pos[2] < pos[0]) {
		t.Errorf("partition scheduled before its inputs: %v", order)
	}
	if pos[3] != 3 {
		t.Errorf("arithmetic should come last: %v", order)
	}
}

func TestPlanIndexPreference(t *testing.T) {
	// The literal sharing a bound variable is scheduled before the
	// unconstrained one.
	order := planOf(t, "h(X, Z) <- a(Y, Z), b(X, W).", "X")
	if order[0] != 1 {
		t.Errorf("order = %v; b(X, W) has a bound argument and should lead", order)
	}
}

func TestPlanFlounder(t *testing.T) {
	p := parser.MustParseProgram("h(X) <- e(X), member(Y, S).")
	_, _, err := planBody(p.Rules[0], -1, nil, nil)
	var fe *FlounderError
	if !errors.As(err, &fe) {
		t.Fatalf("expected FlounderError, got %v", err)
	}
	if len(fe.Lits) == 0 || fe.Lits[0].Pred != "member" {
		t.Errorf("flounder literals = %v", fe.Lits)
	}
	// Evaluation surfaces the same error.
	if _, err := Eval(p, store.NewDB(), Options{}); err == nil {
		t.Error("floundering program evaluated without error")
	}
}

// TestPlanAccessBoundCols pins the plan-time binding analysis: for each
// rule, the argument columns of every body literal (by body position) that
// the compiler marks ground at execution time.  Literals never scheduled
// with a usable column have an empty set (full scan).
func TestPlanAccessBoundCols(t *testing.T) {
	cases := []struct {
		name        string
		src         string
		forcedFirst int
		preBound    []term.Var
		want        map[int][]int // body literal index -> bound columns
	}{
		{
			name: "free join seeds one bound column",
			src:  "h(X, Z) <- a(X, Y), b(Y, Z).",
			want: map[int][]int{0: nil, 1: {0}},
		},
		{
			name: "triangle closes with a composite probe",
			src:  "t(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z).",
			want: map[int][]int{0: nil, 1: {0}, 2: {0, 1}},
		},
		{
			name: "constant argument is always bound",
			src:  "h(X) <- e(a, X).",
			want: map[int][]int{0: {0}},
		},
		{
			name: "fully bound literal becomes a membership probe",
			src:  "h(X) <- e(X, Y), f(X, Y).",
			want: map[int][]int{0: nil, 1: {0, 1}},
		},
		{
			name:        "delta-forced-first literal scans, the rest probe",
			src:         "h(X, Y) <- a(X, Z), b(Z, Y).",
			forcedFirst: 1,
			want:        map[int][]int{1: nil, 0: {1}},
		},
		{
			name:     "magic preBound seed binds the probe column",
			src:      "h(X, Y) <- e(X, Y).",
			preBound: []term.Var{"X"},
			want:     map[int][]int{0: {0}},
		},
		{
			name:     "negated literal records full adornment",
			src:      "h(X, Y) <- e(X, Y), not g(X, Y).",
			preBound: nil,
			want:     map[int][]int{0: nil, 1: {0, 1}},
		},
		{
			name:     "builtin generators bind downstream probes",
			src:      "tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.",
			preBound: []term.Var{"S"},
			// The arithmetic literal's right side (C1 + C2) is ground by
			// the time it runs; only C itself is free.
			want: map[int][]int{0: {0}, 1: {0}, 2: {0}, 3: {1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := parser.MustParseProgram(tc.src)
			bound := map[term.Var]bool{}
			for _, v := range tc.preBound {
				bound[v] = true
			}
			forced := tc.forcedFirst
			if forced == 0 {
				forced = -1 // no case forces literal 0; zero value means unforced
			}
			plan, err := CompileBody(p.Rules[0], forced, bound, nil)
			if err != nil {
				t.Fatalf("CompileBody: %v", err)
			}
			for lit, wantCols := range tc.want {
				got := plan.BoundCols[lit]
				if len(got) != len(wantCols) {
					t.Errorf("literal %d: bound cols = %v, want %v (order %v)", lit, got, wantCols, plan.Order)
					continue
				}
				for i := range wantCols {
					if got[i] != wantCols[i] {
						t.Errorf("literal %d: bound cols = %v, want %v", lit, got, wantCols)
						break
					}
				}
			}
		})
	}
}

// TestPlanFlounderHasNoPlan: the access compiler surfaces the same
// flounder error as the order planner.
func TestPlanFlounderHasNoPlan(t *testing.T) {
	p := parser.MustParseProgram("h(X) <- e(X), member(Y, S).")
	if _, err := CompileBody(p.Rules[0], -1, nil, nil); err == nil {
		t.Fatal("expected flounder error from CompileBody")
	}
}

// TestEvalReportsIndexStats: an indexed join records index hits, a
// scan-only body records full scans.
func TestEvalReportsIndexStats(t *testing.T) {
	src := `triangle(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z).`
	p := parser.MustParseProgram(src)
	db := store.NewDB()
	// 60 distinct edges — comfortably above store.IndexThreshold.
	for i := 0; i < 30; i++ {
		db.Insert(term.NewFact("e", term.Int(i), term.Int((i*7+1)%30)))
		db.Insert(term.NewFact("e", term.Int(i), term.Int((i*11+2)%30)))
	}
	var st Stats
	if _, err := Eval(p, db, Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.IndexHits == 0 {
		t.Error("IndexHits = 0, want > 0 (e is above the index threshold)")
	}
	if st.FullScans == 0 {
		t.Error("FullScans = 0, want > 0 (the leading literal scans)")
	}
}

func TestPlanForcedFirst(t *testing.T) {
	p := parser.MustParseProgram("h(X, Y) <- a(X, Z), b(Z, Y).")
	plan, _, err := planBody(p.Rules[0], 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.order[0] != 1 {
		t.Errorf("forced-first ignored: %v", plan.order)
	}
}

// TestPlanInterpretedArgumentsWait pins the one bindable-variables rule in
// the planner: a database literal whose interpreted argument (arithmetic, an
// enumerated set) needs a variable another literal binds runs after that
// literal — under the cost model, and when it is the forced delta literal —
// while one whose own arguments bind the variable does not wait.
func TestPlanInterpretedArgumentsWait(t *testing.T) {
	db := store.NewDB()
	for i := 0; i < 50; i++ {
		db.Insert(term.NewFact("a", term.Int(i)))
	}
	db.Insert(term.NewFact("b", term.Int(2)))
	r := parser.MustParseProgram("q(X) <- a(X), b(X + 1).").Rules[0]
	for _, c := range []struct {
		name   string
		forced int
		db     *store.DB
	}{{"static", -1, nil}, {"cost", -1, db}, {"forced", 1, nil}, {"forced cost", 1, db}} {
		plan, _, err := planBody(r, c.forced, nil, c.db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.order[0] != 0 {
			t.Errorf("%s: order = %v; b(X + 1) must wait for a(X) to bind X", c.name, plan.order)
		}
	}
	for _, src := range []string{
		"r(X) <- t(X), s(X, {X}).",
		"r(X) <- t(X), s({X}, X).",
	} {
		plan, _, err := planBody(parser.MustParseProgram(src).Rules[0], 1, nil, nil)
		if err != nil || plan.order[0] != 1 {
			t.Errorf("%s forced at 1: order = %v, %v; the literal binds X itself", src, plan, err)
		}
	}
	// A set pattern over a variable nothing binds still plans (LDL106
	// warns; it matches nothing), last.
	plan, _, err := planBody(parser.MustParseProgram("p(X) <- e({Y}), d(X).").Rules[0], -1, nil, nil)
	if err != nil || plan.order[0] != 1 {
		t.Errorf("unbindable set pattern: order = %v, %v; want d(X) first", plan, err)
	}
}

// TestMemoPlanEqualsFreshCompile orders every rule of the shipped programs —
// unforced and with each positive database literal forced first — against
// no database, an empty one and the program's model, through one shape per
// variant, so an ordering may take a plan an earlier database's published,
// and a second ordering against the same database is a memo hit.  Every plan
// it returns equals the one a fresh shape compiles from nothing against the
// same database: the same order and, per step, the same columns, extractor
// count and full-key flag.  A hit allocates nothing unless a built-in's
// readiness test does.
func TestMemoPlanEqualsFreshCompile(t *testing.T) {
	files, err := filepath.Glob("../../programs/*.ldl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs: %v", err)
	}
	shared := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := rewrite.Rewrite(unit.Program)
		if err != nil {
			t.Fatal(err)
		}
		model, err := Eval(prog, store.NewDB(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range prog.Rules {
			for forced := -1; forced < len(r.Body); forced++ {
				s := newVariant(r, r.Head, r.Body, forced, nil)
				if forced >= 0 && !s.isDB[forced] {
					continue
				}
				for _, db := range []*store.DB{nil, store.NewDB(), model} {
					before := s.memo.Load()
					p, _, err := s.plan(db)
					if err != nil {
						t.Fatalf("%s: %v", r, err)
					}
					if before != nil && s.memo.Load() == before {
						shared++
					}
					if again, _, _ := s.plan(db); again != p {
						t.Fatalf("%s: a second ordering against the same database missed the memo", r)
					}
					if allocs := testing.AllocsPerRun(5, func() { s.plan(db) }); allocs != 0 && !hasBuiltin(r) {
						t.Errorf("%s: an ordering that hits the memo allocates %.0f times", r, allocs)
					}
					want, _, _ := newVariant(r, r.Head, r.Body, forced, nil).plan(db)
					if !slices.Equal(p.order, want.order) {
						t.Fatalf("%s: order %v, fresh %v", r, p.order, want.order)
					}
					for k := range want.acc {
						got, w := p.acc[k], want.acc[k]
						if !slices.Equal(got.cols, w.cols) || len(got.keys) != len(w.keys) || got.full != w.full {
							t.Errorf("%s step %d: cols %v keys %d full %v, fresh %v %d %v",
								r, k, got.cols, len(got.keys), got.full, w.cols, len(w.keys), w.full)
						}
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no ordering took a plan another database's ordering had published")
	}
}

func hasBuiltin(r ast.Rule) bool {
	return slices.ContainsFunc(r.Body, func(l ast.Literal) bool { return layering.IsBuiltin(l.Pred) })
}
