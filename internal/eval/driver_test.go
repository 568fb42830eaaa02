package eval

import (
	"errors"
	"slices"
	"testing"

	"ldl1/internal/store"
	"ldl1/internal/term"
)

// inserter is a sink that inserts every new head fact into db.
type inserter struct{ db *store.DB }

func (s inserter) Probe(pred string) (*store.Relation, bool) { return s.db.RelOrNil(pred), false }

func (s inserter) Accept(f *term.Fact) (bool, error) { return s.db.Insert(f), nil }

// TestRoundFeedsLaterTasks pins the one way a round runs: a head fact goes
// to the sink during the join that found it, so a later task of the same
// round reads what an earlier task's sink inserted — for a maintenance
// driver exactly as for evaluation.
func TestRoundFeedsLaterTasks(t *testing.T) {
	first := mustCompileRule(t, `q(X) <- p(X).`)
	second := mustCompileRule(t, `r(X) <- q(X).`)
	third := mustCompileRule(t, `s(X) <- r(X).`)
	db := store.NewDB()
	delta := store.NewRelation("p", false)
	delta.Insert(term.NewFact("p", atom("a")))

	var st Stats
	next := NewFrontier(false, NewFeeds([]*Variant{second.Delta(0), third.Delta(0)}))
	tasks := []Task{first.Delta(0).Task(db, delta), second.base.Task(db, nil)}
	if err := NewDriver(Options{Stats: &st}).Round(tasks, inserter{db}, next); err != nil {
		t.Fatal(err)
	}
	if !db.Contains(term.NewFact("r", atom("a"))) {
		t.Fatal("the second task did not see q(a), which the first task's sink inserted")
	}
	if next.n != 2 || st.Firings != 2 {
		t.Errorf("frontier holds %d facts after %d firings, want 2 and 2", next.n, st.Firings)
	}
}

// TestProbeSeesBucketAsProbed pins the snapshot rule of an index probe: in
// a live round, a rule whose sink appends to the very bucket it is probing
// walks only the facts the bucket held when the probe began, as a full scan
// walks only the facts its relation held.  e(a, s(X)) <- e(a, X) probes the
// bucket of a and appends to it once per fact walked.  The store keeps a
// bucket of up to 64 facts flat and pages it beyond, so the sizes cover a
// flat bucket that stays flat, one whose appends open its first page, and
// paged ones whose appends fill the last page and open the next.
func TestProbeSeesBucketAsProbed(t *testing.T) {
	rule := mustCompileRule(t, `e(a, s(X)) <- e(a, X).`)
	for _, n := range []int{32, 60, 190, 192} {
		db := store.NewDB()
		for i := range n {
			db.Insert(term.NewFact("e", atom("a"), term.Int(int64(i))))
		}
		var st Stats
		if err := NewDriver(Options{Stats: &st}).Round([]Task{rule.base.Task(db, nil)}, &capped{inserter{db}, n}, nil); err != nil {
			t.Fatalf("a bucket of %d facts: %v", n, err)
		}
		if st.Firings != n || st.IndexHits != 1 || db.Card("e") != 2*n {
			t.Errorf("a bucket of %d facts: %d firings, %d index probes, %d facts after the round; want %d, 1 and %d",
				n, st.Firings, st.IndexHits, db.Card("e"), n, 2*n)
		}
	}
}

// capped is an inserter that fails the round past its n-th new fact.
type capped struct {
	inserter
	n int
}

func (s *capped) Accept(f *term.Fact) (bool, error) {
	if s.n == 0 {
		return false, errors.New("the round walked a fact its own sink appended")
	}
	s.n--
	return s.inserter.Accept(f)
}

// TestFrontierKeepsWhatTheNextRoundReads: in a layer with a non-recursive
// head predicate (b) and a recursive one (t), the frontier of the cascade —
// whose only variant reads t — keeps the facts of t and none of b, and the
// cascade still reaches the fixpoint.  A delta relation is a chunk over the
// frontier's pages, and an insert into the chunk leaves every page as it
// was, up to its capacity.
func TestFrontierKeepsWhatTheNextRoundReads(t *testing.T) {
	b := mustCompileRule(t, `b(X) <- e(X, Y).`)
	base := mustCompileRule(t, `t(X, Y) <- e(X, Y).`)
	rec := mustCompileRule(t, `t(X, Z) <- t(X, Y), e(Y, Z).`)
	db := store.NewDB()
	const n = 100 // a chain: t holds n(n+1)/2 facts
	for i := range n {
		db.Insert(term.NewFact("e", term.Int(int64(i)), term.Int(int64(i+1))))
	}
	feeds := NewFeeds([]*Variant{rec.Delta(0)})
	fr := NewFrontier(false, feeds)
	d := NewDriver(Options{})
	round0 := []Task{b.base.Task(db, nil), base.base.Task(db, nil), rec.base.Task(db, nil)}
	if err := d.Round(round0, inserter{db}, fr); err != nil {
		t.Fatal(err)
	}
	if fr.delta("b") != nil || fr.delta("t") == nil || fr.n != fr.delta("t").Len() {
		t.Fatalf("the frontier holds %d facts, %v of b: want only facts of t", fr.n, fr.delta("b") != nil)
	}
	if err := d.Cascade(fr, db, inserter{db}, nil); err != nil {
		t.Fatal(err)
	}
	if db.Card("b") != n || db.Card("t") != n*(n+1)/2 {
		t.Fatalf("%d facts of b and %d of t, want %d and %d", db.Card("b"), db.Card("t"), n, n*(n+1)/2)
	}

	fr = NewFrontier(false, feeds)
	for i := range pageLen + 5 {
		fr.Add(term.NewFact("t", atom("x"), term.Int(int64(i))))
	}
	pages := fr.preds[feeds.reads["t"]].pages
	var was [][]*term.Fact
	for _, p := range pages {
		was = append(was, slices.Clone(p[:cap(p)]))
	}
	chunk := fr.delta("t")
	if !chunk.Insert(term.NewFact("t", atom("y"), term.Int(0))) || chunk.Len() != pageLen+6 {
		t.Fatalf("the chunk took no new fact, or holds %d facts", chunk.Len())
	}
	for i, p := range pages {
		if !slices.Equal(p[:cap(p)], was[i]) {
			t.Fatalf("an insert into the chunk wrote into page %d of the frontier", i)
		}
	}
}

// TestNestedEnumerationPanics: an enumeration keeps what it reads — the
// databases, the binding trail, the head arguments of its solution — on
// its Exec, so a second one started on the same Exec from inside a yield
// of the first would overwrite them.  heads panics instead, and the Exec
// serves the next enumeration once that one is over.
func TestNestedEnumerationPanics(t *testing.T) {
	r := mustCompileRule(t, `q(X) <- p(X).`)
	db := store.NewDB()
	db.Insert(term.NewFact("p", atom("a")))
	x := &Exec{b: &budget{}}
	enumerate := func(yield func([]term.Term) error) error {
		return x.heads(r.base, nil, db, nil, x.bindings(), yield)
	}
	nested := func() (msg any) {
		defer func() { msg = recover() }()
		enumerate(func([]term.Term) error {
			return enumerate(func([]term.Term) error { return nil })
		})
		return nil
	}()
	if nested == nil {
		t.Fatal("an enumeration nested inside another on one Exec did not panic")
	}
	var got []term.Term
	if err := enumerate(func(args []term.Term) error { got = append(got, args...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !term.Equal(got[0], atom("a")) {
		t.Errorf("after the panic the Exec enumerates %v, want [a]", got)
	}
}
