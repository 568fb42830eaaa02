package ldl1

import (
	"context"
	"slices"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// TestCacheHitAllocsFlat: an answer-cache hit hands out the cached rows and
// copies one slice of them, so what it allocates does not depend on how
// many rows there are — a 1-row young read and a 254-row descendants read
// cost the same number of objects.  A caller reordering the rows it got
// leaves the next hit as it was.
func TestCacheHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng, err := New(treeProgram(9), WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	hit := func(q string, rows int) float64 {
		pq, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		first, err := pq.Exec() // fills the cache
		if err != nil || first.Len() != rows {
			t.Fatalf("%s: %d rows, %v; want %d", q, first.Len(), err, rows)
		}
		want := first.String()
		slices.Reverse(first.Rows)
		if again := mustStr(t)(pq.Exec()); again != want {
			t.Fatalf("%s: reordering a hit's rows changed the next hit:\n%s", q, again)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := pq.Exec(); err != nil {
				t.Fatal(err)
			}
		})
	}
	young, desc := hit("young(n700, S)", 1), hit("a(n5, W)", 254)
	t.Logf("allocs per cache hit: %.0f (1 row), %.0f (254 rows)", young, desc)
	if young != desc {
		t.Errorf("a cache hit of 254 rows allocates %.0f objects, of 1 row %.0f: want equal", desc, young)
	}
}

// TestSolveAllocsFlatPerRow: solving one cache-shaped literal writes its
// rows into one growing slice and skips deduplication, so 512 rows cost at
// most the extra doublings of that slice more than 8 rows.
func TestSolveAllocsFlatPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	body := []ast.Literal{{Pred: "e", Args: []term.Term{term.Var("X"), term.Atom("x"), term.Var("Y")}}}
	solve := func(n int) float64 {
		db := store.NewDB()
		for i := 0; i < n; i++ {
			db.Insert(term.NewFact("e", term.Int(i), term.Atom("x"), term.Int(-i)))
		}
		return testing.AllocsPerRun(50, func() {
			rows, err := eval.SolveLimitsCtx(context.Background(), body, db, eval.SolveLimits{})
			if err != nil || len(rows) != n {
				t.Fatalf("%d rows, %v; want %d", len(rows), err, n)
			}
		})
	}
	small, large := solve(8), solve(512)
	t.Logf("allocs per solve: %.0f (8 rows), %.0f (512 rows)", small, large)
	if doublings := 6.0; large > small+doublings {
		t.Errorf("512 rows allocate %.0f objects, 8 rows %.0f: more than %.0f slice doublings apart", large, small, doublings)
	}
}
