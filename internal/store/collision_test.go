package store

import (
	"fmt"
	"math/rand"
	"testing"

	"ldl1/internal/term"
	"ldl1/internal/termgen"
)

// forceCollisions replaces the package hash hooks with degenerate constant
// hashes so every fact and every index value lands in the same bucket, and
// returns a restore function.  Correctness must not depend on hash quality:
// with all hashes equal, Insert/Contains/Lookup fall back entirely on the
// structural equality tie-breakers.  The constants end a fact's hash and a
// one-column key in sixteen one bits, so their home slot is the last slot of
// their table and every probe run of two entries or more wraps the table:
// the worst case of a backward-shift delete.
func forceCollisions(t *testing.T) func() {
	t.Helper()
	oldF, oldT := hashFact, hashTerm
	hashFact = func(*term.Fact) uint64 { return 1<<16 - 1 }
	hashTerm = func(term.Term) uint64 { return 260416 }
	if k := keyOf([]term.Term{term.Int(0)}); k&(1<<16-1) != 1<<16-1 {
		t.Fatalf("a one-column key hashes to %#x, not to the last slot", k)
	}
	return func() { hashFact, hashTerm = oldF, oldT }
}

func TestRelationAllHashesCollide(t *testing.T) {
	defer forceCollisions(t)()

	r := NewRelation("p", true)
	n := 100
	for i := 0; i < n; i++ {
		if !r.Insert(term.NewFact("p", term.Int(i), term.Atom(fmt.Sprintf("a%d", i)))) {
			t.Fatalf("fact %d reported as duplicate", i)
		}
	}
	// Re-inserting every fact must report duplicates, not grow the relation.
	for i := 0; i < n; i++ {
		if r.Insert(term.NewFact("p", term.Int(i), term.Atom(fmt.Sprintf("a%d", i)))) {
			t.Fatalf("re-inserted fact %d reported as new", i)
		}
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		f := term.NewFact("p", term.Int(i), term.Atom(fmt.Sprintf("a%d", i)))
		if !r.Contains(f) {
			t.Fatalf("Contains(%s) = false", f)
		}
		g, ok := r.Get(f)
		if !ok || !term.EqualFacts(g, f) {
			t.Fatalf("Get(%s) = %v, %v", f, g, ok)
		}
	}
	if r.Contains(term.NewFact("p", term.Int(n), term.Atom("nope"))) {
		t.Fatal("Contains reported an absent fact")
	}
	// Delete every other fact out of the one wrapping probe run.
	for i := 0; i < n; i += 2 {
		if !r.Delete(term.NewFact("p", term.Int(i), term.Atom(fmt.Sprintf("a%d", i)))) {
			t.Fatalf("Delete of fact %d reported absent", i)
		}
	}
	if r.Len() != n/2 {
		t.Fatalf("Len = %d after deletes, want %d", r.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		if got := r.Contains(term.NewFact("p", term.Int(i), term.Atom(fmt.Sprintf("a%d", i)))); got != (i%2 == 1) {
			t.Fatalf("after deletes, Contains(p(%d)) = %v", i, got)
		}
	}
	checkShards(t, r)
}

func TestLookupAllHashesCollide(t *testing.T) {
	defer forceCollisions(t)()

	for _, useIdx := range []bool{true, false} {
		r := NewRelation("edge", useIdx)
		// 10 distinct column-0 values, 10 facts each — all in one hash chain.
		for v := 0; v < 10; v++ {
			for j := 0; j < 10; j++ {
				r.Insert(term.NewFact("edge", term.Int(v), term.Int(100*v+j)))
			}
		}
		for v := 0; v < 10; v++ {
			got := lookupCol(r, 0, term.Int(v))
			if len(got) != 10 {
				t.Fatalf("useIdx=%v: Lookup(0, %d) returned %d facts, want 10", useIdx, v, len(got))
			}
			for _, f := range got {
				if !term.Equal(f.Args[0], term.Int(v)) {
					t.Fatalf("useIdx=%v: Lookup(0, %d) returned stray fact %s", useIdx, v, f)
				}
			}
		}
		if got := lookupCol(r, 0, term.Int(99)); len(got) != 0 {
			t.Fatalf("useIdx=%v: Lookup of absent value returned %d facts", useIdx, len(got))
		}
		// Delete every other fact of each even key, and each odd key whole:
		// its entry leaves the index's one probe run.
		for v := 0; v < 10; v++ {
			for j := 0; j < 10; j++ {
				if v%2 == 1 || j%2 == 1 {
					r.Delete(term.NewFact("edge", term.Int(v), term.Int(100*v+j)))
				}
			}
		}
		for v := 0; v < 10; v++ {
			got, want := lookupCol(r, 0, term.Int(v)), 5*(1-v%2)
			if len(got) != want {
				t.Fatalf("useIdx=%v: after deletes, Lookup(0, %d) returned %d facts, want %d", useIdx, v, len(got), want)
			}
			for _, f := range got {
				if !term.Equal(f.Args[0], term.Int(v)) || f.Args[1].(term.Int)%2 != 0 {
					t.Fatalf("useIdx=%v: after deletes, Lookup(0, %d) returned %s", useIdx, v, f)
				}
			}
		}
		if ix := r.findIndex(1); useIdx && ix.keys != 5 {
			t.Fatalf("column-0 index holds %d keys after deletes, want 5", ix.keys)
		}
		checkShards(t, r)
	}
}

func TestFactSetAllHashesCollide(t *testing.T) {
	defer forceCollisions(t)()

	s := NewFactSet()
	for i := 0; i < 50; i++ {
		if !s.Add(term.NewFact("q", term.Int(i))) {
			t.Fatalf("Add(%d) reported duplicate", i)
		}
		if s.Add(term.NewFact("q", term.Int(i))) {
			t.Fatalf("second Add(%d) reported new", i)
		}
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
	for i := 0; i < 50; i++ {
		if !s.Contains(term.NewFact("q", term.Int(i))) {
			t.Fatalf("Contains(%d) = false", i)
		}
	}
	if s.Contains(term.NewFact("q", term.Int(50))) {
		t.Fatal("Contains reported an absent fact")
	}
}

func randFact(rng *rand.Rand) *term.Fact {
	n := rng.Intn(3) + 1
	args := make([]term.Term, n)
	for i := range args {
		args[i] = termgen.Term(rng, 2)
	}
	return term.NewFact(fmt.Sprintf("p%d", rng.Intn(4)), args...)
}

// TestDBEqualMatchesTextEquality cross-checks the hash-based DB.Equal
// against the text form: two databases are equal exactly when the sets of
// their facts' texts coincide.  The narrow value ranges make duplicate and near-duplicate terms
// (including sets differing only in element order) common.
func TestDBEqualMatchesTextEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b := NewDB(), NewDB()
		keysA, keysB := map[string]bool{}, map[string]bool{}
		for i := rng.Intn(30); i > 0; i-- {
			f := randFact(rng)
			a.Insert(f)
			keysA[f.String()] = true
		}
		for i := rng.Intn(30); i > 0; i-- {
			f := randFact(rng)
			b.Insert(f)
			keysB[f.String()] = true
		}
		// Half the trials: force equality by copying a into b.
		if trial%2 == 0 {
			b, keysB = NewDB(), map[string]bool{}
			for _, f := range a.Facts() {
				b.Insert(f)
				keysB[f.String()] = true
			}
		}
		wantEq := len(keysA) == len(keysB)
		if wantEq {
			for k := range keysA {
				if !keysB[k] {
					wantEq = false
					break
				}
			}
		}
		if got := a.Equal(b); got != wantEq {
			t.Fatalf("trial %d: DB.Equal = %v, text-based equality = %v\nA:\n%s\nB:\n%s",
				trial, got, wantEq, a, b)
		}
		// Per-fact cross-check: Contains must agree with key membership.
		for _, f := range a.Facts() {
			if b.Contains(f) != keysB[f.String()] {
				t.Fatalf("trial %d: Contains(%s) = %v, text lookup = %v",
					trial, f, b.Contains(f), keysB[f.String()])
			}
		}
	}
}

// TestInsertGetInterns verifies that InsertGet returns one canonical pointer
// per distinct fact value.
func TestInsertGetInterns(t *testing.T) {
	r := NewRelation("p", false)
	f1 := term.NewFact("p", term.Int(1), term.NewSet(term.Int(2), term.Int(3)))
	f2 := term.NewFact("p", term.Int(1), term.NewSet(term.Int(3), term.Int(2), term.Int(2)))

	got1, added := r.InsertGet(f1)
	if !added || got1 != f1 {
		t.Fatalf("first InsertGet = %v, %v", got1, added)
	}
	got2, added := r.InsertGet(f2)
	if added {
		t.Fatal("duplicate set-valued fact reported as new")
	}
	if got2 != f1 {
		t.Fatalf("InsertGet did not intern: got %p, want canonical %p", got2, f1)
	}
}

// TestCollisionsNeverDeepenDirectory: a table whose entries the next hash bit
// does not separate grows instead of splitting, so under a degenerate hash
// neither the intern directory nor an index directory ever doubles.
func TestCollisionsNeverDeepenDirectory(t *testing.T) {
	defer forceCollisions(t)()

	r := NewRelation("p", true)
	for i := range 10 * unit {
		r.Insert(term.NewFact("p", term.Int(i), term.Int(i%3)))
		if r.shardBits != 0 {
			t.Fatalf("%d colliding facts: intern directory of depth %d", i+1, r.shardBits)
		}
	}
	if got := lookupCol(r, 0, term.Int(7)); len(got) != 1 {
		t.Fatalf("Lookup(0, 7) returned %d facts, want 1", len(got))
	}
	if ix := r.findIndex(1); ix.bits != 0 || ix.keys != 10*unit {
		t.Fatalf("column-0 index of depth %d over %d keys, want 0 and %d", ix.bits, ix.keys, 10*unit)
	}
	for i := range 10 * unit {
		if !r.Contains(term.NewFact("p", term.Int(i), term.Int(i%3))) {
			t.Fatalf("p(%d, %d) missing", i, i%3)
		}
	}
	checkShards(t, r)
}
