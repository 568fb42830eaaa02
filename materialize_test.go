package ldl1

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
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
	snap0 := mv.Model()

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
		if _, ok := mv.Model().DB().RelOrNil("a").DistinctCols([]int{0, 1}); ok {
			t.Errorf("depth %d: the writes built an index over both columns of a", depth)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, mv.Model().Len()
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
