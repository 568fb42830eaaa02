package ldl1

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ldl1/internal/store"
)

func TestMaterializeAssertRetract(t *testing.T) {
	eng, err := New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFacts(`parent(abe, bob). parent(bob, carl).`); err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	snap0 := mustModel(t, mv)

	res, err := mv.Assert(`parent(carl, dee).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 4 || res.Deleted != 0 {
		t.Fatalf("Assert result = %+v, want Inserted 4", res)
	}
	ans, err := mv.Query("ancestor(abe, dee)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Empty() {
		t.Fatal("ancestor(abe, dee) not derivable after Assert")
	}

	res, err = mv.Retract(`parent(abe, bob).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 4 || res.Inserted != 0 {
		t.Fatalf("Retract result = %+v, want Deleted 4", res)
	}
	ans, err = mv.Query("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Empty() {
		t.Fatalf("ancestor(abe, W) after Retract = %v, want none", ans)
	}

	// Snapshots taken before updates are unaffected.
	if got, _ := snap0.Contains("ancestor(abe, carl)"); !got {
		t.Fatal("pre-update snapshot lost ancestor(abe, carl)")
	}
	if got, _ := snap0.Contains("parent(carl, dee)"); got {
		t.Fatal("pre-update snapshot observed a later Assert")
	}

	// Rules are rejected in update sources.
	if _, err := mv.Assert(`bad(X) <- parent(X, X).`); err == nil {
		t.Fatal("Assert of a rule should error")
	}
}

// treeProgram is the §6 running example over a complete binary family tree
// of the given depth (heap numbering: the children of ni are n2i and n2i+1):
// the shape of the served workloads, whose model grows fourfold per level.
func treeProgram(depth int) string {
	var b strings.Builder
	b.WriteString(`a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
hasdesc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), not hasdesc(X).
kids(P, <C>) <- p(P, C).
`)
	for i := 1; i < 1<<depth; i++ {
		fmt.Fprintf(&b, "p(n%d, n%d). p(n%d, n%d). siblings(n%d, n%d). siblings(n%d, n%d).\n",
			i, 2*i, i, 2*i+1, 2*i, 2*i+1, 2*i+1, 2*i)
	}
	return b.String()
}

// TestWriteAllocBoundedByChange: a transaction runs on a clone
// of the model, and what it allocates follows what it changes, not the size
// of the relations the changed facts live in, nor how many indexes readers
// have built on them, nor how many facts share an index key with a changed
// fact.  The change here is a leaf attached to the bottom of the tree and
// detached again: a fact per ancestor, one regrouped young set — neither
// quite constant, the path grows by one and the set doubles per level — in
// a model that grows fourfold per level.  Below a few hundred facts per
// relation a transaction copies whole small relations, beyond that a page
// per changed fact and structure — of an index bucket too: the root's
// a(n1, _) bucket holds every node, and a write copies its top and the page
// it lands in — so the figure climbs from depth 5 to 7 and flattens after.
// With a second extra leaf attached the pair also adds and removes
// same-generation facts, in the model's largest relation.  (One
// relation-sized copy per touched relation, the layout this replaced,
// measured 18x from depth 5 to 9 and 8x for the second leaf; whole-bucket
// copies measured 1.8x from depth 7 to 9.)  The rederivation test a(Z, Y)
// of a(X, Y) <- a(X, Z), a(Z, Y) binds every column of a, and such a probe
// reads the intern tables: no index over both columns is built, so none is
// copied and kept up to date per write.
func TestWriteAllocBoundedByChange(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pair := func(depth int, second bool) (kb float64, model int) {
		eng, err := New(treeProgram(depth))
		if err != nil {
			t.Fatal(err)
		}
		mv, err := eng.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		bottom := 1 << depth
		for _, q := range []string{"a(n1, W)", "a(W, n%d)", "sg(n%d, W)", "young(n%d, S)", "kids(n1, S)"} {
			if strings.Contains(q, "%d") {
				q = fmt.Sprintf(q, bottom)
			}
			if _, err := mv.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		tx := func(do func(string) (UpdateResult, error), fact string) {
			if _, err := do(fact); err != nil {
				t.Fatal(err)
			}
		}
		leaf := fmt.Sprintf("p(n%d, x).", bottom)
		if second {
			tx(mv.Assert, fmt.Sprintf("p(n%d, y).", 2*bottom-1))
		}
		tx(mv.Assert, leaf) // warm: the first write builds what maintenance probes
		tx(mv.Retract, leaf)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tx(mv.Assert, leaf)
		tx(mv.Retract, leaf)
		runtime.ReadMemStats(&m1)
		if _, ok := mustModel(t, mv).DB().RelOrNil("a").DistinctCols([]int{0, 1}); ok {
			t.Errorf("depth %d: the writes built an index over both columns of a", depth)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, mustModel(t, mv).Len()
	}
	kb5, n5 := pair(5, false)
	kb7, n7 := pair(7, false)
	kb9, n9 := pair(9, false)
	kb9two, _ := pair(9, true)
	t.Logf("attach+detach of one leaf: %.0f KB at depth 5 (%d facts), %.0f KB at depth 7 (%d), %.0f KB at depth 9 (%d); %.0f KB at depth 9 beside a second leaf",
		kb5, n5, kb7, n7, kb9, n9, kb9two)
	if kb9 > 1.6*kb7 || kb9 > 4*kb5 {
		t.Errorf("the pair allocates %.0f / %.0f / %.0f KB at depth 5 / 7 / 9: it follows the model, not the change", kb5, kb7, kb9)
	}
	if kb9two > 1.3*kb9 {
		t.Errorf("the pair allocates %.0f KB beside a second leaf, %.0f KB alone: more than 1.3 times as much", kb9two, kb9)
	}
}

// TestLoadedFactsAreEvaluated: a fact's interpreted functors (§2.2) are
// evaluated however it is loaded — program text, AddFacts, AddFact or a
// view's Assert — so each load gives one model, read alike plain and under
// magic; a view retracts a fact written another way, and a fact outside U is
// rejected — one in the program text by New, which evaluates each fact of
// the program once, before any read.
func TestLoadedFactsAreEvaluated(t *testing.T) {
	const fact = "p(2+2, scons(3, {4})).\n"
	for _, magic := range []bool{false, true} {
		for _, load := range []string{"text", "AddFacts", "AddFact", "Assert"} {
			src := "q(X, S) <- p(X, S).\n"
			if load == "text" {
				src += fact
			}
			e, err := New(src, WithMagic(magic))
			if err != nil {
				t.Fatal(err)
			}
			switch load {
			case "AddFacts":
				err = e.AddFacts(fact)
			case "AddFact":
				err = e.AddFact(NewFact("p", Func("+", Num(2), Num(2)), Func("scons", Num(3), SetOf(Num(4)))))
			}
			query := e.Query
			m, _ := e.Run()
			if load == "Assert" {
				v, _ := e.Materialize()
				_, err = v.Assert(fact)
				m, query = mustModel(t, v), v.Query
			}
			a, qerr := query("p(4, S)")
			if got := fmt.Sprint(m.Facts("p")); err != nil || qerr != nil || got != "[p(4, {3, 4})]" || a.Len() != 1 {
				t.Errorf("magic %v, %s: %v, model %s, p(4, S) answers %v, %v", magic, load, err, got, a, qerr)
			}
		}
	}
	v := mustView(t, "p(3). q(X) <- p(X).")
	if _, err := v.Retract("p(1+2)."); err != nil || mustModel(t, v).Len() != 0 {
		t.Errorf("Retract(p(1+2)) left %v, %v", mustModel(t, v).Facts("p"), err)
	}
	var pe *ParseError
	e, _ := New("")
	if err := e.AddFacts("p(1/0)."); !errors.As(err, &pe) {
		t.Errorf("AddFacts(p(1/0)) = %v, want a ParseError", err)
	}
	for _, magic := range []bool{false, true} {
		if _, err := New("q(X) <- p(X).\np(1/0).", WithMagic(magic)); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("magic %v: New of a program with p(1/0). = %v; want an outside-U error", magic, err)
		}
	}
}

// TestMaterializeClonesModel: an engine has one model.  Materialize after
// Run clones it and fires no rule; from then on the view and the engine go
// on apart — an Assert on the view does not reach the engine's next Run,
// and an AddFacts on the engine does not reach the view.
func TestMaterializeClonesModel(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	before := st
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if st.Firings != before.Firings || st.Iterations != before.Iterations {
		t.Errorf("Materialize after Run fired %d rules in %d iterations, want none",
			st.Firings-before.Firings, st.Iterations-before.Iterations)
	}
	if _, err := mv.Assert("par(e, v)."); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFacts("par(e, w)."); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for fact, want := range map[string]bool{"anc(a, w)": true, "anc(a, v)": false} {
		if got, _ := m.Contains(fact); got != want {
			t.Errorf("engine after both writes: %s = %v, want %v", fact, got, want)
		}
		if got, _ := mustModel(t, mv).Contains(fact); got == want {
			t.Errorf("view after both writes: %s = %v, want %v", fact, got, !want)
		}
	}
}

// TestViewDoesNotPinEngine: a view keeps nothing of its engine but the
// WithStats sink, so an engine dropped after Run and Materialize is
// collected while the view lives.  The finalizer sits on the engine's
// extensional database, which only the engine holds: the engine itself is
// in a cycle through its reader, and a finalizer on an object of a cycle
// never runs.
func TestViewDoesNotPinEngine(t *testing.T) {
	for name, opts := range map[string][]Option{"plain": nil, "WithStats": {WithStats(new(Stats))}} {
		mv, collected := dropEngine(t, opts...)
		for i := 0; i < 10 && !collected(); i++ {
			runtime.GC()
		}
		if !collected() {
			t.Errorf("%s: the engine outlives ten collections while its view lives", name)
		}
		if got := mustStr(t)(mv.Query("anc(a, W)")); got != "W = b\nW = c\nW = d\nW = e" {
			t.Errorf("%s: the view answers %q", name, got)
		}
	}
}

// dropEngine builds an engine, reads its model and materializes a view, and
// returns the view and whether the engine has been collected since.
func dropEngine(t *testing.T, opts ...Option) (*Materialized, func() bool) {
	eng, err := New(prepProg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	runtime.SetFinalizer(eng.edb, func(*store.DB) { close(done) })
	return mv, func() bool {
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
			return false
		}
	}
}
