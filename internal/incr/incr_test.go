package incr

import (
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

func af(pred string, args ...string) *term.Fact {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		ts[i] = term.Atom(a)
	}
	return term.NewFact(pred, ts...)
}

func mustNew(t *testing.T, src string, facts []*term.Fact, opts Options) *Materialized {
	t.Helper()
	edb := store.NewDB()
	for _, f := range facts {
		edb.Insert(f)
	}
	m, err := New(parser.MustParseProgram(src), edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustApply(t *testing.T, m *Materialized, tx Tx) Result {
	t.Helper()
	res, err := m.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const ancSrc = `
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
`

func TestApplyInsertPropagates(t *testing.T) {
	m := mustNew(t, ancSrc, []*term.Fact{af("par", "a", "b")}, Options{})
	res := mustApply(t, m, Tx{Insert: []*term.Fact{af("par", "b", "c")}})
	snap := m.Snapshot()
	for _, f := range []*term.Fact{
		af("par", "b", "c"), af("anc", "b", "c"), af("anc", "a", "c"), af("anc", "a", "b"),
	} {
		if !snap.Contains(f) {
			t.Fatalf("model missing %s after insert", f)
		}
	}
	if res.Inserted != 3 || res.Deleted != 0 {
		t.Fatalf("Result = %+v, want Inserted 3 / Deleted 0", res)
	}
}

func TestApplyRetractDeleteAndRederive(t *testing.T) {
	// Diamond a->b->d and a->c->d: retracting par(b, d) must delete
	// anc(b, d) but rederive anc(a, d) through c.
	var st eval.Stats
	m := mustNew(t, ancSrc, []*term.Fact{
		af("par", "a", "b"), af("par", "b", "d"),
		af("par", "a", "c"), af("par", "c", "d"),
	}, Options{Stats: &st})
	res := mustApply(t, m, Tx{Retract: []*term.Fact{af("par", "b", "d")}})
	snap := m.Snapshot()
	for _, f := range []*term.Fact{af("par", "b", "d"), af("anc", "b", "d")} {
		if snap.Contains(f) {
			t.Fatalf("model still has %s after retract", f)
		}
	}
	if !snap.Contains(af("anc", "a", "d")) {
		t.Fatal("anc(a, d) lost despite surviving derivation through c")
	}
	if res.Deleted != 2 || res.Inserted != 0 {
		t.Fatalf("Result = %+v, want Deleted 2 / Inserted 0", res)
	}
	if st.DeletedOverestimate < 3 {
		t.Fatalf("DeletedOverestimate = %d, want >= 3 (anc(a,d) overestimated)", st.DeletedOverestimate)
	}
	if st.Rederived < 1 {
		t.Fatalf("Rederived = %d, want >= 1", st.Rederived)
	}
}

func TestApplyNegationCrossEffects(t *testing.T) {
	// A lower-layer insertion is a deletion source through negation, and a
	// lower-layer deletion an insertion source.
	src := `q(X) <- p(X), not r(X).`
	m := mustNew(t, src, []*term.Fact{af("p", "a"), af("p", "b")}, Options{})
	if !m.Snapshot().Contains(af("q", "a")) {
		t.Fatal("initial model missing q(a)")
	}

	res := mustApply(t, m, Tx{Insert: []*term.Fact{af("r", "a")}})
	if m.Snapshot().Contains(af("q", "a")) {
		t.Fatal("q(a) survived insertion of r(a)")
	}
	if !m.Snapshot().Contains(af("q", "b")) {
		t.Fatal("q(b) lost: unrelated class affected")
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("Result = %+v, want Inserted 1 / Deleted 1", res)
	}

	res = mustApply(t, m, Tx{Retract: []*term.Fact{af("r", "a")}})
	if !m.Snapshot().Contains(af("q", "a")) {
		t.Fatal("q(a) not restored by retraction of r(a)")
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("Result = %+v, want Inserted 1 / Deleted 1", res)
	}
}

func TestApplyGroupingRegroup(t *testing.T) {
	var st eval.Stats
	src := `
supplies(S, <P>) <- sp(S, P).
has(S) <- supplies(S, PS).
`
	m := mustNew(t, src, []*term.Fact{af("sp", "s1", "p1"), af("sp", "s1", "p2")}, Options{Stats: &st})
	set12 := term.NewFact("supplies", term.Atom("s1"), term.NewSet(term.Atom("p1"), term.Atom("p2")))
	if !m.Snapshot().Contains(set12) {
		t.Fatalf("initial model missing %s", set12)
	}

	mustApply(t, m, Tx{Insert: []*term.Fact{af("sp", "s1", "p3")}})
	set123 := term.NewFact("supplies", term.Atom("s1"), term.NewSet(term.Atom("p1"), term.Atom("p2"), term.Atom("p3")))
	snap := m.Snapshot()
	if snap.Contains(set12) {
		t.Fatalf("stale class fact %s survived regrouping", set12)
	}
	if !snap.Contains(set123) {
		t.Fatalf("model missing regrouped %s", set123)
	}
	if st.RegroupedClasses != 1 {
		t.Fatalf("RegroupedClasses = %d, want 1", st.RegroupedClasses)
	}

	// Retracting the whole class removes the set fact and its dependents.
	mustApply(t, m, Tx{Retract: []*term.Fact{
		af("sp", "s1", "p1"), af("sp", "s1", "p2"), af("sp", "s1", "p3"),
	}})
	snap = m.Snapshot()
	if snap.Contains(set123) || snap.Contains(af("has", "s1")) {
		t.Fatal("empty class still has a supplies/has fact")
	}
}

func TestApplyTxRetractCancelsInsert(t *testing.T) {
	m := mustNew(t, ancSrc, []*term.Fact{af("par", "a", "b")}, Options{})
	before := m.Snapshot()
	res := mustApply(t, m, Tx{
		Insert:  []*term.Fact{af("par", "b", "c")},
		Retract: []*term.Fact{af("par", "b", "c")},
	})
	if res.Inserted != 0 || res.Deleted != 0 {
		t.Fatalf("Result = %+v, want all-zero", res)
	}
	if m.Snapshot() != before {
		t.Fatal("no-op transaction published a new snapshot")
	}
}

func TestApplySnapshotsImmutable(t *testing.T) {
	m := mustNew(t, ancSrc, []*term.Fact{af("par", "a", "b")}, Options{})
	snap0 := m.Snapshot()
	len0 := snap0.Len()
	mustApply(t, m, Tx{Insert: []*term.Fact{af("par", "b", "c")}})
	mustApply(t, m, Tx{Retract: []*term.Fact{af("par", "a", "b")}})
	if snap0.Len() != len0 {
		t.Fatalf("published snapshot mutated: Len %d -> %d", len0, snap0.Len())
	}
	if !snap0.Contains(af("anc", "a", "b")) || snap0.Contains(af("par", "b", "c")) {
		t.Fatal("old snapshot observed a later transaction")
	}
	// The current model reflects both transactions.
	snap := m.Snapshot()
	if snap.Contains(af("anc", "a", "b")) || !snap.Contains(af("anc", "b", "c")) {
		t.Fatalf("current model wrong:\n%s", snap)
	}
}

func TestApplyArithmeticHeadRederive(t *testing.T) {
	// succ's head cannot be inverted by matching; the rederivation test
	// falls back to enumeration.
	src := `succ(X, X + 1) <- e(X).`
	sf := func(k, v int64) *term.Fact {
		return term.NewFact("succ", term.Int(k), term.Int(v))
	}
	m := mustNew(t, src, []*term.Fact{
		term.NewFact("e", term.Int(1)), term.NewFact("e", term.Int(2)),
	}, Options{})
	mustApply(t, m, Tx{Retract: []*term.Fact{term.NewFact("e", term.Int(1))}})
	snap := m.Snapshot()
	if snap.Contains(sf(1, 2)) {
		t.Fatal("succ(1, 2) survived retraction of e(1)")
	}
	if !snap.Contains(sf(2, 3)) {
		t.Fatal("succ(2, 3) lost")
	}
}

func TestApplyEDBFactsAndResultRoundTrip(t *testing.T) {
	m := mustNew(t, ancSrc, []*term.Fact{af("par", "a", "b")}, Options{})
	mustApply(t, m, Tx{Insert: []*term.Fact{af("par", "b", "c")}})
	mustApply(t, m, Tx{Retract: []*term.Fact{af("par", "a", "b")}})
	got := m.EDBFacts()
	if len(got) != 1 || !term.EqualFacts(got[0], af("par", "b", "c")) {
		t.Fatalf("EDBFacts = %v, want [par(b, c)]", got)
	}
}

// TestApplyMatchesEvalOnChurn drives the u3-style workload shape — negation
// and grouping over a churning EDB — comparing every step against the
// from-scratch model.
func TestApplyMatchesEvalOnChurn(t *testing.T) {
	src := `
multi(P) <- sp(S1, P), sp(S2, P), S1 /= S2.
sole(S, P) <- sp(S, P), not multi(P).
supplies(S, <P>) <- sp(S, P).
`
	p := parser.MustParseProgram(src)
	edb := store.NewDB()
	edb.Insert(af("sp", "s1", "p1"))
	m, err := New(p, edb.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []Tx{
		{Insert: []*term.Fact{af("sp", "s2", "p1")}}, // p1 becomes multi: sole(s1,p1) dies
		{Insert: []*term.Fact{af("sp", "s2", "p2")}},
		{Retract: []*term.Fact{af("sp", "s1", "p1")}}, // p1 sole again, for s2
		{Insert: []*term.Fact{af("sp", "s1", "p2"), af("sp", "s3", "p3")}},
		{Retract: []*term.Fact{af("sp", "s2", "p1"), af("sp", "s2", "p2")}},
	}
	for k, tx := range steps {
		if _, err := m.Apply(tx); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		for _, f := range tx.Insert {
			edb.Insert(f)
		}
		for _, f := range tx.Retract {
			edb.Delete(f)
		}
		want, err := eval.Eval(p, edb, eval.Options{})
		if err != nil {
			t.Fatalf("step %d: oracle: %v", k, err)
		}
		if got := m.Snapshot(); !got.Equal(want) {
			t.Fatalf("step %d: incremental model diverged\ngot:\n%s\nwant:\n%s", k, got, want)
		}
	}
}

func TestApplyRetractProgramTextFact(t *testing.T) {
	// Facts written in the program text seed the view's EDB, so a
	// transaction can retract them like facts loaded separately.
	src := ancSrc + `
par(a, b). par(b, c).
`
	m := mustNew(t, src, nil, Options{})
	if !m.Snapshot().Contains(af("anc", "a", "c")) {
		t.Fatal("initial model missing anc(a, c)")
	}
	res := mustApply(t, m, Tx{Retract: []*term.Fact{af("par", "a", "b")}})
	if res.Deleted == 0 {
		t.Fatalf("retracting a program-text fact was a no-op: %+v", res)
	}
	snap := m.Snapshot()
	for _, f := range []*term.Fact{
		af("par", "a", "b"), af("anc", "a", "b"), af("anc", "a", "c"),
	} {
		if snap.Contains(f) {
			t.Errorf("%v still in model after retract", f)
		}
	}
	if !snap.Contains(af("anc", "b", "c")) {
		t.Error("anc(b, c) lost: only par(a, b) was retracted")
	}
}

// TestApplyOrderIndependentOfWorkers pins the promise of deferred rounds:
// starting from one model, a view maintained on 2 or 4 workers holds the
// same model as the sequential one fact for fact and in the same relation
// order, after every transaction — on the DRed-heavy mixed stream and on
// churn under negation and grouping.  (The views are materialized alike and
// only then given their worker counts: the initial evaluation makes no such
// promise, at Workers <= 1 it inserts in place.)
func TestApplyOrderIndependentOfWorkers(t *testing.T) {
	parentAnc := `
ancestor(X, Y) <- parent(X, Y).
ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
`
	churn := `
multi(P) <- sp(S1, P), sp(S2, P), S1 /= S2.
sole(S, P) <- sp(S, P), not multi(P).
supplies(S, <P>) <- sp(S, P).
`
	mixedEDB, mixedTxs := workload.MixedUpdates(48, 12, 23)
	churnEDB, churnTxs := workload.ChurnSupplierParts(16, 4, 12, 29)
	for _, c := range []struct {
		name, src string
		edb       *store.DB
		txs       []workload.Update
	}{
		{"mixed", parentAnc, mixedEDB, mixedTxs},
		{"churn", churn, churnEDB, churnTxs},
	} {
		p := parser.MustParseProgram(c.src)
		var views []*Materialized
		for _, workers := range []int{1, 2, 4} {
			m, err := New(p, c.edb, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m.opts.Workers = workers
			views = append(views, m)
		}
		for k, u := range c.txs {
			var want []*term.Fact
			for i, m := range views {
				mustApply(t, m, Tx{Insert: u.Insert, Retract: u.Retract})
				got := m.Snapshot().Facts()
				if i == 0 {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s tx %d: view %d holds %d facts, the sequential one %d", c.name, k, i, len(got), len(want))
				}
				for j := range got {
					if !term.EqualFacts(got[j], want[j]) {
						t.Fatalf("%s tx %d: view %d has %s at position %d, the sequential one %s", c.name, k, i, got[j], j, want[j])
					}
				}
			}
		}
	}
}
