package ldl1

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// cacheHitCeiling bounds the objects an answer-cache hit allocates:
// measured plus a quarter.  Measured here 3, and 4 when every read cut a
// slice of row headers from the cached table.
const cacheHitCeiling = 3.75

// TestCacheHitAllocsFlat: an answer-cache hit reads the cached table in
// place, so what it allocates does not depend on how many rows there are —
// a 1-row young read and a 254-row descendants read cost the same number of
// objects, at most cacheHitCeiling.  A caller reordering the rows it got
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
		slices.Reverse(first.Rows())
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
	if desc > cacheHitCeiling {
		t.Errorf("a cache hit allocates %.0f objects, ceiling %.2f", desc, cacheHitCeiling)
	}
}

// TestAnswersReadInPlace: Len and Row read an answer's table in place and
// allocate nothing, on no rows, one and 254.
func TestAnswersReadInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng, err := New(treeProgram(9), WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		rows  int
	}{{"a(n700, W)", 0}, {"young(n700, S)", 1}, {"a(n5, W)", 254}} {
		a, err := eng.Query(c.query)
		if err != nil || a.Len() != c.rows {
			t.Fatalf("%s: %v rows, %v; want %d", c.query, a, err, c.rows)
		}
		var cells int
		allocs := testing.AllocsPerRun(50, func() {
			for i := range a.Len() {
				cells += len(a.Row(i))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: reading %d rows allocates %.0f objects, want 0", c.query, c.rows, allocs)
		}
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

// readMissCeilings bound the objects one read allocates when the answer
// cache misses, by reader: measured plus a quarter.  The read takes its
// compiled form from the reader's memo (or its prepared handle) and binds
// the new constant to it, so it builds no query shape and plans through the
// form's memo of join orders, and a lone atom's cache key is its name.
// Measured here, and (in parentheses) when a read cut a slice of row
// headers from its table and grew the table by doubling: engine 23 (25), view 23 (25), view-prepared 14 (16),
// magic-base 23 (25), magic-derived 48 (51).  When a read laid its answer
// out as rows twice, took fresh bindings per task and lexed its query into
// a token slice they were 29, 29, 17, 29 and 62; when a snapshot read built
// and planned a one-off shape per call and a magic-sets execution evaluated
// the program's facts again, 46, 46, 38, 46 and 908.
var readMissCeilings = map[string]float64{
	"engine":        28,
	"view":          28,
	"view-prepared": 17,
	"magic-base":    28,
	"magic-derived": 60,
}

// TestReadMissAllocCeiling reads one shape with a new constant each time, so
// every read misses the answer cache, on an engine, a view, a view's
// prepared handle and a WithMagic engine: a base relation, answered from
// the snapshot, and a derived one, answered by magic-sets evaluation.
func TestReadMissAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	src := treeProgram(6) // nodes n1 … n127; n64 … n127 are leaves
	plain, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	magicEng, err := New(src, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	mv, err := plain.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	mv2, err := plain.Materialize() // the prepared handle's, with a cache of its own
	if err != nil {
		t.Fatal(err)
	}
	pq, err := mv2.Prepare("p(n1, W)")
	if err != nil {
		t.Fatal(err)
	}
	// The first read of each shape compiles its form.
	for _, read := range []func() (*Answers, error){
		func() (*Answers, error) { return plain.Query("p(n1, W)") },
		func() (*Answers, error) { return mv.Query("p(n1, W)") },
		func() (*Answers, error) { return magicEng.Query("p(n1, W)") },
		func() (*Answers, error) { return magicEng.Query("a(n1, W)") },
	} {
		if _, err := read(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 40
	measure := func(name, pred string, first int, read func(q string, node Term) (*Answers, error)) {
		// AllocsPerRun calls read once to warm up and then runs times, each
		// on a node no read of the reader has named yet, from n<first> on.
		qs, nodes := make([]string, runs+1), make([]Term, runs+1)
		for k := range qs {
			n := fmt.Sprintf("n%d", first+k)
			qs[k], nodes[k] = pred+"("+n+", W)", Sym(n)
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if _, err := read(qs[i], nodes[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.0f allocs per read miss (ceiling %.0f)", name, got, readMissCeilings[name])
		if got > readMissCeilings[name] {
			t.Errorf("%s: %.0f allocs per read miss, ceiling %.0f", name, got, readMissCeilings[name])
		}
	}
	measure("engine", "p", 2, func(q string, _ Term) (*Answers, error) { return plain.Query(q) })
	measure("view", "p", 2, func(q string, _ Term) (*Answers, error) { return mv.Query(q) })
	measure("view-prepared", "p", 2, func(_ string, n Term) (*Answers, error) { return pq.Exec(n) })
	measure("magic-base", "p", 2, func(q string, _ Term) (*Answers, error) { return magicEng.Query(q) })
	measure("magic-derived", "a", 64, func(q string, _ Term) (*Answers, error) { return magicEng.Query(q) })
	for _, v := range []*Materialized{mv, mv2} {
		if hits, _, _, _ := v.CacheCounters(); hits != 0 {
			t.Errorf("%d cache hits on a view, want every read a miss", hits)
		}
	}
}

// TestReadKeyAllocs pins what keying one read costs, hit or miss: the ground
// arguments once (a miss binds the same slice to its form's parameters) and
// the shape, written directly; a lone atom's constants text is its name.
func TestReadKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q, err := parser.ParseQuery("a(n5, W)")
	if err != nil {
		t.Fatal(err)
	}
	key, consts := readKey(q.Body)
	if want := (qcache.Key{Pred: "a", Adorn: "bf", Consts: "n5"}); key != want || len(consts) != 1 {
		t.Fatalf("readKey = %+v, %v; want %+v, [n5]", key, consts, want)
	}
	const want = 2
	if got := testing.AllocsPerRun(100, func() { readKey(q.Body) }); got != want {
		t.Errorf("keying a(n5, W) allocates %.0f objects, want %d", got, want)
	}
}

// TestExecArgKeyAllocs pins that a prepared Exec with an argument keys its
// read from the shape fixed at Prepare: on a cache hit it allocates no more
// than Exec with the prepared constants, and builds no literal.
func TestExecArgKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng, err := New(prepProg)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.Prepare("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	arg := Sym("b")
	for _, args := range [][]Term{nil, {arg}} {
		if _, err := pq.Exec(args...); err != nil { // fill the cache
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(100, func() { pq.Exec() })
	withArg := testing.AllocsPerRun(100, func() { pq.Exec(arg) })
	t.Logf("a cache hit allocates %.0f objects by Exec() and %.0f by Exec(b)", plain, withArg)
	if withArg > plain {
		t.Errorf("Exec(b) allocates %.0f objects on a hit, Exec() %.0f: the argument costs a key of its own", withArg, plain)
	}
}
