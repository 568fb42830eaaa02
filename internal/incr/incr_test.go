package incr

import (
	"math/rand"
	"slices"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
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

// TestApplyNegatedSetPattern replays the negated-set-pattern shapes in both
// directions against from-scratch evaluation: the delta variant of
// not g(X, {Y}) may not run before e1 binds Y, or maintenance never sees
// the solutions the negation gained or lost.
func TestApplyNegatedSetPattern(t *testing.T) {
	e0, e1 := af("e0", "c5", "c5"), af("e1", "c5", "c5")
	for _, src := range []string{
		"g(X, <Y>) <- e0(X, Y).\nh(X) <- e1(X, Y), not g(X, {Y}).",
		"g(X, S) <- e0(X, Y), S = {Y}.\nh(X) <- e1(X, Y), not g(X, {Y}).",
		"g(X, <Y>) <- e0(X, Y).\nh(X) <- e1(X, Y), T = {Y}, not g(X, T).",
	} {
		p := parser.MustParseProgram(src)
		for _, c := range []struct {
			name    string
			initial []*term.Fact
			tx      Tx
			wantH   bool
		}{
			{"assert e0", []*term.Fact{e1}, Tx{Insert: []*term.Fact{e0}}, false},
			{"retract e0", []*term.Fact{e1, e0}, Tx{Retract: []*term.Fact{e0}}, true},
		} {
			m := mustNew(t, src, c.initial, Options{})
			mustApply(t, m, c.tx)
			edb := store.NewDB()
			for _, f := range append(c.initial, c.tx.Insert...) {
				edb.Insert(f)
			}
			edb.DeleteAll(c.tx.Retract)
			want, err := eval.Eval(p, edb, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot()
			if !got.Equal(want) || got.Contains(af("h", "c5")) != c.wantH {
				t.Errorf("%s after %s: view\n%s\nfrom scratch\n%s", src, c.name, got, want)
			}
		}
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

// edbFacts returns the facts of the view's current EDB.
func edbFacts(m *Materialized) []*term.Fact {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.edb.Facts())
}

func TestApplyEDBFactsAndResultRoundTrip(t *testing.T) {
	m := mustNew(t, ancSrc, []*term.Fact{af("par", "a", "b")}, Options{})
	mustApply(t, m, Tx{Insert: []*term.Fact{af("par", "b", "c")}})
	mustApply(t, m, Tx{Retract: []*term.Fact{af("par", "a", "b")}})
	got := edbFacts(m)
	if len(got) != 1 || !term.EqualFacts(got[0], af("par", "b", "c")) {
		t.Fatalf("EDB facts = %v, want [par(b, c)]", got)
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

// TestRegroupBesideOtherSources: a grouping rule's old sets are read from
// the old model only where the rule is the one source of its predicate's
// facts.  Here g has a second defining rule and facts of its own in the EDB,
// k only the second rule and h only the EDB facts, all on the class keys the
// grouping rules produce (g(a, {1}) beside e(a, 1), e(a, 2)).  A stream of
// transactions over e, d and those facts must leave the model equal to a
// from-scratch evaluation after every step.
func TestRegroupBesideOtherSources(t *testing.T) {
	src := `
g(X, <Y>) <- e(X, Y).
g(X, {Y}) <- d(X, Y).
k(X, <Y>) <- e(X, Y).
k(X, {Y}) <- d(X, Y).
h(X, <Y>) <- e(X, Y).
`
	p := parser.MustParseProgram(src)
	keys := []string{"a", "b"}
	fact := func(r *rand.Rand) *term.Fact {
		x, y := term.Atom(keys[r.Intn(len(keys))]), term.Int(int64(1+r.Intn(3)))
		switch pred := []string{"e", "e", "d", "g", "h"}[r.Intn(5)]; pred {
		case "g", "h":
			return term.NewFact(pred, x, term.NewSet(y))
		default:
			return term.NewFact(pred, x, y)
		}
	}
	edb := store.NewDB()
	for _, f := range []*term.Fact{
		term.NewFact("e", term.Atom("a"), term.Int(1)),
		term.NewFact("e", term.Atom("a"), term.Int(2)),
		term.NewFact("g", term.Atom("a"), term.NewSet(term.Int(1))),
		term.NewFact("h", term.Atom("a"), term.NewSet(term.Int(1))),
	} {
		edb.Insert(f)
	}
	m, err := New(p, edb.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	for step := 0; step < 60; step++ {
		var tx Tx
		for k := 1 + r.Intn(2); k > 0; k-- {
			tx.Insert = append(tx.Insert, fact(r))
		}
		if live := edb.Facts(); len(live) > 0 {
			for k := r.Intn(3); k > 0; k-- {
				tx.Retract = append(tx.Retract, live[r.Intn(len(live))])
			}
		}
		mustApply(t, m, tx)
		for _, f := range tx.Insert {
			edb.Insert(f)
		}
		for _, f := range tx.Retract {
			edb.Delete(f)
		}
		want, err := eval.Eval(p, edb, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot(); !got.Equal(want) {
			t.Fatalf("step %d: +%v -%v: incremental model diverged\ngot:\n%s\nwant:\n%s", step, tx.Insert, tx.Retract, got, want)
		}
	}
}

// TestApplySkipsUnreachedLayers: a negated EDB predicate n and an unrelated
// EDB predicate f feed different layers, so a transaction on one of them
// leaves the other's layer unreached, and Apply skips it.  Each transaction
// alone, then both together, must leave the view equal to a from-scratch
// evaluation of the new EDB.
func TestApplySkipsUnreachedLayers(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X) <- e(X), not n(X).
		b(X) <- f(X).
		both(X) <- a(X), b(X).
		cnt(<X>) <- a(X).
	`)
	edb := store.NewDB()
	for _, f := range []*term.Fact{af("e", "1"), af("e", "2"), af("f", "1"), af("n", "3")} {
		edb.Insert(f)
	}
	m, err := New(p, edb.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0 holds the EDB; a, b, both and cnt get one layer each, and
	// each lists the lower predicates a delta on which reaches it.
	reads := map[string][]string{}
	for i, below := range m.below {
		l := m.prog.Layer(i)
		for _, cr := range append(l.Simple, l.Grouping...) {
			reads[cr.Rule.Head.Pred] = below
			if got := m.lay.Stratum[cr.Rule.Head.Pred]; got != i {
				t.Fatalf("%s compiled in layer %d, stratum %d", cr.Rule.Head.Pred, i, got)
			}
		}
	}
	if l := m.prog.Layer(0); len(m.below) != 5 || len(l.Simple)+len(l.Grouping) != 0 {
		t.Fatalf("%d layers, layer 0 %+v", len(m.below), l)
	}
	want := map[string][]string{"a": {"e", "n"}, "b": {"f"}, "both": {"a", "b"}, "cnt": {"a"}}
	for pred, w := range want {
		if !slices.Equal(reads[pred], w) {
			t.Errorf("layer of %s reads %v, want %v", pred, reads[pred], w)
		}
	}
	for k, tx := range []Tx{
		{Insert: []*term.Fact{af("n", "1")}}, // a's layer only
		{Insert: []*term.Fact{af("f", "2")}}, // b's layer only
		{Insert: []*term.Fact{af("n", "2"), af("f", "3")}, Retract: []*term.Fact{af("n", "1"), af("f", "1")}}, // both
	} {
		mustApply(t, m, tx)
		for _, f := range tx.Insert {
			edb.Insert(f)
		}
		for _, f := range tx.Retract {
			edb.Delete(f)
		}
		model, err := eval.Eval(p, edb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot(); !got.Equal(model) {
			t.Fatalf("tx %d: view\n%s\nwant\n%s", k, got, model)
		}
	}
}
