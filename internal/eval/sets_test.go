package eval

import (
	"runtime"
	"testing"

	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

// TestGroupedSetsAdoptTheirClass: a grouped set holds its class's list when
// at most an eighth of it is spare capacity, and an exact copy otherwise, so
// no set keeps more than len/8 slots it does not use.  Classes of 1 to 40
// elements cover lists that fit exactly, that are adopted with room to
// spare, and that are copied; h's classes collect every element twice.
func TestGroupedSetsAdoptTheirClass(t *testing.T) {
	edb := store.NewDB()
	for k := 1; k <= 40; k++ {
		for e := 0; e < k; e++ {
			edb.Insert(term.NewFact("r", term.Int(k), term.Int(e)))
		}
		edb.Insert(term.NewFact("half", term.Int(k-1), term.Int((k-1)/2)))
	}
	p := parser.MustParseProgram(`
		g(K, <E>) <- r(K, E).
		h(K, <E>) <- r(K, F), half(F, E).`)
	db, err := Eval(p, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adopted := 0
	for pred, size := range map[string]func(k int) int{"g": func(k int) int { return k }, "h": func(k int) int { return (k + 1) / 2 }} {
		for _, f := range db.Rel(pred).All() {
			es := f.Args[1].(*term.Set).Elems()
			if spare := cap(es) - len(es); spare > len(es)/8 {
				t.Errorf("%s: %d spare slots for %d elements", f, spare, len(es))
			} else if spare > 0 {
				adopted++
			}
			if k := int(f.Args[0].(term.Int)); len(es) != size(k) {
				t.Errorf("%s has %d elements, want %d", f, len(es), size(k))
			}
		}
	}
	if adopted == 0 {
		t.Error("no grouped set adopted a list with spare capacity")
	}
}

// TestPartCostAllocCeiling pins what one whole-model evaluation of the §1
// part-cost program allocates on a part made of nine elementary parts
// (workload.BOM(1, 9), the batch benchmark's input): tc holds 1 023 sets,
// and the 113 244 firings of the partition rule rebuild far fewer unions
// than they find, because the evaluation's set table hands back the one an
// earlier firing built, and the sum C1 + C2 is added without an argument
// slice.  Measured 780 178 bytes and 34 926 objects per run; the ceilings
// are a quarter above.
func TestPartCostAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	p := parser.MustParseProgram(`
		part(P, <S>) <- p(P, S).
		tc({X}, C) <- q(X, C).
		tc({X}, C) <- part(X, S), tc(S, C).
		tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
		result(X, C) <- tc(S, C), member(X, S), S = {X}.`)
	lay, err := layering.Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(lay.Rules)
	if err != nil {
		t.Fatal(err)
	}
	edb := workload.BOM(1, 9)
	run := func() *store.DB {
		db := edb.Clone()
		if err := prog.Run(db, Options{}, nil); err != nil {
			t.Fatal(err)
		}
		return db
	}
	if n := run().Card("tc"); n != 1023 {
		t.Fatalf("tc has %d facts, want 1023", n)
	}
	const runs = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d bytes, %d objects per run", bytes, objects)
	const maxBytes, maxObjects = 975_000, 43_650
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("%d bytes and %d objects per run, ceilings %d and %d", bytes, objects, maxBytes, maxObjects)
	}
}
