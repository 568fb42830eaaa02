package eval

import (
	"math/rand"
	"runtime"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

func TestParallelMatchesSequential(t *testing.T) {
	srcs := []string{
		ancestorSrc,
		`sg(X, Y) <- sib(X, Y).
		 sg(X, Y) <- up(X, X1), sg(X1, Y1), up(Y, Y1).
		 sib(a1, a2). up(b1, a1). up(b2, a2). up(c1, b1). up(c2, b2).`,
		`even(X, Y) <- edge(X, Y).
		 even(X, Y) <- odd(X, Z), edge(Z, Y).
		 odd(X, Y) <- even(X, Z), edge(Z, Y).
		 edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 1).`,
		partCostSrc,
	}
	for i, src := range srcs {
		p := parser.MustParseProgram(src)
		seq, err := Eval(p, store.NewDB(), Options{})
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, workers := range []int{2, 4, 8} {
			for _, strat := range []Strategy{SemiNaive, Naive} {
				par, err := Eval(p, store.NewDB(), Options{Strategy: strat, Workers: workers})
				if err != nil {
					t.Fatalf("program %d workers %d: %v", i, workers, err)
				}
				if !par.Equal(seq) {
					t.Errorf("program %d: %d workers (strategy %v) differ:\n%s\nvs\n%s",
						i, workers, strat, par, seq)
				}
			}
		}
	}
}

func TestParallelOnWorkloads(t *testing.T) {
	p := parser.MustParseProgram(ancestorSrc)
	for _, db := range []*store.DB{
		workload.ParentChain(100),
		workload.RandomDAG(150, 3, 9),
		workload.ParentTree(6),
	} {
		seq, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Eval(p, db, Options{Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(seq) {
			t.Error("parallel evaluation differs on workload")
		}
	}
}

func TestParallelRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		src := randProgram(r, 1+r.Intn(3), 1+r.Intn(3))
		p, err := parser.ParseProgram(src)
		if err != nil {
			continue
		}
		seq, err := Eval(p, store.NewDB(), Options{})
		if err != nil {
			continue // unsafe/inadmissible generations are skipped
		}
		par, err := Eval(p, store.NewDB(), Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d: parallel failed where sequential passed: %v\n%s", trial, err, src)
		}
		if !par.Equal(seq) {
			t.Fatalf("trial %d: parallel differs\n%s", trial, src)
		}
	}
}

func TestParallelStatsDerivedMatch(t *testing.T) {
	p := parser.MustParseProgram(ancestorSrc)
	var seq, par Stats
	if _, err := Eval(p, store.NewDB(), Options{Stats: &seq}); err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(p, store.NewDB(), Options{Stats: &par, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if seq.Derived != par.Derived {
		t.Errorf("derived: sequential %d vs parallel %d", seq.Derived, par.Derived)
	}
}

// TestParallelOrderIndependentOfWorkers pins what deferred rounds promise:
// any two worker counts above one build the same model fact for fact and in
// the same relation order — every round replays its per-task buffers in
// task order, and chunking a delta keeps its facts in order.  (Workers <= 1
// inserts in place and may order a relation differently; it is compared as
// a set, above.)
func TestParallelOrderIndependentOfWorkers(t *testing.T) {
	p := parser.MustParseProgram(ancestorSrc)
	for _, db := range []*store.DB{
		store.NewDB(),
		workload.ParentChain(100),
		workload.RandomDAG(150, 3, 9),
	} {
		for _, strat := range []Strategy{SemiNaive, Naive} {
			var want []*term.Fact
			for _, workers := range []int{2, 4, 8} {
				m, err := Eval(p, db, Options{Strategy: strat, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := m.Facts()
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d facts, 2 workers %d", workers, len(got), len(want))
				}
				for i := range got {
					if !term.EqualFacts(got[i], want[i]) {
						t.Fatalf("workers=%d strategy %v: %s at position %d, 2 workers have %s", workers, strat, got[i], i, want[i])
					}
				}
			}
		}
	}
}
