package ldl1

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

const ancProg = `anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`

// TestAddDBAllocIndependentOfSize: AddDB into an engine that holds none of
// the database's predicates shares each relation (store.DB.Adopt), so it
// allocates the same number of objects for a relation of 1 000 facts as
// for one of 100 000.
func TestAddDBAllocIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	load := func(n int) uint64 {
		db := store.NewDB()
		fs := make([]*term.Fact, n)
		for i := range fs {
			fs[i] = term.NewFact("e", term.Int(int64(i)), term.Int(int64(i+1)))
		}
		db.LoadFacts(fs, store.LoadOpts{})
		least := uint64(math.MaxUint64)
		for range 3 {
			eng, err := New(`p(X) <- e(X, Y).`)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			eng.AddDB(db)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.Mallocs-m0.Mallocs)
			if eng.edb.Card("e") != n {
				t.Fatalf("engine holds %d e facts, want %d", eng.edb.Card("e"), n)
			}
		}
		return least
	}
	small, large := load(1000), load(100_000)
	t.Logf("AddDB allocates %d objects at 1 000 facts, %d at 100 000", small, large)
	if large > small+4 {
		t.Errorf("AddDB allocates %d objects at 1 000 facts and %d at 100 000: it copies the relation", small, large)
	}
}

// TestAddDBSidesApart: after AddDB neither side's writes reach the other.
// The caller's Insert and Delete through its database stay out of the
// engine, whether it had built its model before the load or not, and the
// engine's AddFacts, Assert and Retract stay out of the caller's database.
// Engines build their indexes for themselves, not on the caller's
// relation.
func TestAddDBSidesApart(t *testing.T) {
	for _, built := range []bool{false, true} {
		t.Run(fmt.Sprintf("model built=%v", built), func(t *testing.T) {
			db := workload.ParentChain(20)
			before := db.String()
			eng, err := New(ancProg)
			if err != nil {
				t.Fatal(err)
			}
			if built {
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
			eng.AddDB(db)
			db.Insert(term.NewFact("parent", term.Atom("n20"), term.Atom("x")))
			db.Delete(term.NewFact("parent", term.Atom("n0"), term.Atom("n1")))
			m, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ok, _ := m.Contains("anc(n0, n20)"); !ok || m.Len() != 20+210 {
				t.Errorf("engine model has %d facts, anc(n0, n20) %v: want the 230 of the database as loaded", m.Len(), ok)
			}
			if ok, _ := m.Contains("anc(n19, x)"); ok {
				t.Error("the caller's insert after AddDB reached the engine")
			}
			if _, ok := db.RelOrNil("parent").DistinctCols([]int{0}); ok {
				t.Error("the engine's evaluation built an index on the caller's relation")
			}

			after := db.String()
			if err := eng.AddFacts("parent(n20, y)."); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Assert("parent(y, z)."); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Retract("parent(n1, n2)."); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if got := db.String(); got != after || got == before {
				t.Errorf("the engine's writes reached the caller's database:\n%s", got)
			}
		})
	}
}

// TestAddDBWithoutIndexesAdoptsNoIndex: a WithoutIndexes engine that adopts
// a relation the caller has indexed never probes an index, and the
// relation tells its planner nothing (DistinctCols) that it would not tell
// an unindexed engine: its counters equal those of a twin loading the same
// facts unindexed.
func TestAddDBWithoutIndexesAdoptsNoIndex(t *testing.T) {
	indexed := workload.ParentTree(6)
	r := indexed.RelOrNil("parent")
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		vals := []term.Term{term.Atom("n1"), term.Atom("n2")}[:len(cols)]
		if _, ok := r.LookupCols(cols, vals); !ok {
			t.Fatalf("the caller's relation did not index %v", cols)
		}
	}
	run := func(db *store.DB) (Stats, *Engine) {
		var st Stats
		eng, err := New(ancProg, WithoutIndexes(), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		eng.AddDB(db)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query("anc(n3, W)"); err != nil {
			t.Fatal(err)
		}
		return st, eng
	}
	got, eng := run(indexed)
	want, _ := run(workload.ParentTree(6))
	if got.IndexHits != 0 {
		t.Errorf("the unindexed engine made %d index probes", got.IndexHits)
	}
	if got != want {
		t.Errorf("adopting an indexed relation: %+v; loading it unindexed: %+v", got, want)
	}
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		if n, ok := eng.edb.RelOrNil("parent").DistinctCols(cols); ok {
			t.Errorf("the unindexed engine's relation reports %d distinct keys on %v", n, cols)
		}
	}
}

// TestAddDBConcurrentEngines: several goroutines each build an engine,
// AddDB one shared database, and run, read and write it; every engine
// computes the same model and sees only its own writes.
func TestAddDBConcurrentEngines(t *testing.T) {
	db := workload.ParentTree(5)
	lookup := db.RelOrNil("parent")
	lookup.LookupCols([]int{0}, []term.Term{term.Atom("n1")}) // an index the engines share
	ref, err := New(ancProg)
	if err != nil {
		t.Fatal(err)
	}
	ref.AddDB(workload.ParentTree(5))
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := New(ancProg)
			if err != nil {
				t.Error(err)
				return
			}
			eng.AddDB(db)
			m, err := eng.Run()
			if err != nil || !m.DB().Equal(want.DB()) {
				t.Errorf("engine %d: model differs from the reference (%v)", g, err)
				return
			}
			own := fmt.Sprintf("w%d", g)
			if _, err := eng.Assert(fmt.Sprintf("parent(n31, %s).", own)); err != nil {
				t.Error(err)
				return
			}
			m, err = eng.Run()
			if err != nil {
				t.Error(err)
				return
			}
			for k := range 4 {
				if ok, _ := m.Contains(fmt.Sprintf("anc(n1, w%d)", k)); ok != (k == g) {
					t.Errorf("engine %d: anc(n1, w%d) is %v", g, k, ok)
				}
			}
			if a, err := eng.Query("anc(n1, W)"); err != nil {
				t.Error(err)
			} else if a.Len() != 63 {
				t.Errorf("engine %d: anc(n1, W) has %d answers, want n1's 62 descendants and %s", g, a.Len(), own)
			}
		}()
	}
	wg.Wait()
	if db.Card("parent") != 62 {
		t.Errorf("the shared database holds %d parent facts, want 62", db.Card("parent"))
	}
}
