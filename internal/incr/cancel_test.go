package incr

import (
	"context"
	"errors"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// countdownCtx cancels after a fixed number of polls; see the eval package
// twin.
type countdownCtx struct {
	context.Context
	remaining int
}

func newCountdownCtx(polls int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: polls}
}

func (c *countdownCtx) Err() error {
	if c.remaining--; c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

const cancelRules = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
`

func chainEDB(n int) *store.DB {
	db := store.NewDB()
	for i := 0; i < n; i++ {
		db.Insert(term.NewFact("parent", term.Int(i), term.Int(i+1)))
	}
	return db
}

// TestApplyCtxCancellationOracle cancels one mixed transaction at every
// poll index in turn.  A canceled Apply must leave the EDB, the published
// snapshot and all future maintenance exactly as if it was never attempted:
// after retrying the same transaction to completion, the model must equal
// the from-scratch evaluation.
func TestApplyCtxCancellationOracle(t *testing.T) {
	p := parser.MustParseProgram(cancelRules)
	tx := Tx{
		Insert: []*term.Fact{
			term.NewFact("parent", term.Int(20), term.Int(0)),
			term.NewFact("parent", term.Int(8), term.Int(21)),
		},
		Retract: []*term.Fact{
			term.NewFact("parent", term.Int(3), term.Int(4)),
		},
	}
	// The model the transaction must produce, computed from scratch.
	after := chainEDB(8)
	for _, f := range tx.Insert {
		after.Insert(f)
	}
	for _, f := range tx.Retract {
		after.Delete(f)
	}
	want, err := eval.Eval(p, after, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Measure how often a full run polls the context, then cancel at
	// every index up to (and including) that count: the last iteration
	// completes, all shorter ones cancel somewhere mid-maintenance.
	probe := newCountdownCtx(1 << 30)
	m0, err := New(p, chainEDB(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m0.ApplyCtx(probe, tx); err != nil {
		t.Fatal(err)
	}
	totalPolls := int(1<<30 - probe.remaining)
	if totalPolls < 2 {
		t.Fatalf("transaction polled only %d times", totalPolls)
	}

	canceled, completed := 0, 0
	for polls := 0; polls <= totalPolls; polls++ {
		m, err := New(p, chainEDB(8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		pre := m.Snapshot()
		preEDB := store.NewFactSet()
		for _, f := range m.EDBFacts() {
			preEDB.Add(f)
		}
		_, err = m.ApplyCtx(newCountdownCtx(polls), tx)
		if err != nil {
			if !errors.Is(err, lderr.Canceled) {
				t.Fatalf("polls=%d: want lderr.Canceled, got %v", polls, err)
			}
			if m.Snapshot() != pre {
				t.Fatalf("polls=%d: canceled Apply published a new snapshot", polls)
			}
			for _, f := range m.EDBFacts() {
				if !preEDB.Contains(f) {
					t.Fatalf("polls=%d: canceled Apply mutated the EDB (%s)", polls, f)
				}
			}
			canceled++
			// The rolled-back view must accept the same transaction.
			if _, err := m.Apply(tx); err != nil {
				t.Fatalf("polls=%d: retry after cancel: %v", polls, err)
			}
		} else {
			completed++
		}
		if !m.Snapshot().Equal(want) {
			t.Fatalf("polls=%d: final model differs from from-scratch evaluation", polls)
		}
	}
	if canceled == 0 || completed == 0 {
		t.Fatalf("oracle did not exercise both outcomes (canceled=%d completed=%d)", canceled, completed)
	}
}

// TestApplyMaxDerivedRollback pins the per-transaction derivation bound: a
// breaching transaction fails with LimitError and rolls back, and the view
// keeps accepting transactions that fit.
func TestApplyMaxDerivedRollback(t *testing.T) {
	p := parser.MustParseProgram(cancelRules)
	m, err := New(p, chainEDB(2), Options{MaxDerived: 6})
	if err != nil {
		t.Fatalf("initial materialization: %v", err)
	}
	pre := m.Snapshot()

	// Extending the chain by 3 edges derives 3 parent + 12 ancestor
	// facts — far over the bound of 6.
	big := Tx{Insert: []*term.Fact{
		term.NewFact("parent", term.Int(2), term.Int(3)),
		term.NewFact("parent", term.Int(3), term.Int(4)),
		term.NewFact("parent", term.Int(4), term.Int(5)),
	}}
	_, err = m.Apply(big)
	var le *lderr.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.Limit != 6 {
		t.Errorf("limit = %d", le.Limit)
	}
	if m.Snapshot() != pre {
		t.Fatal("breaching transaction published a snapshot")
	}

	// A disconnected edge derives 2 facts and still fits.
	small := Tx{Insert: []*term.Fact{term.NewFact("parent", term.Int(50), term.Int(51))}}
	res, err := m.Apply(small)
	if err != nil {
		t.Fatalf("small transaction after rollback: %v", err)
	}
	if res.Inserted != 2 {
		t.Errorf("small tx inserted %d facts, want 2", res.Inserted)
	}
}

// wideView materializes q(X, Y) <- r(X), s(Y) over n s-facts and no r-fact:
// inserting one r-fact then makes a single maintenance task enumerate n
// solutions and insert n facts in one round.
func wideView(t *testing.T, n int, opts Options) *Materialized {
	t.Helper()
	edb := store.NewDB()
	for i := 0; i < n; i++ {
		edb.Insert(term.NewFact("s", term.Int(i)))
	}
	m, err := New(parser.MustParseProgram(`q(X, Y) <- r(X), s(Y).`), edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestApplyCtxInterruptsInsideRound pins that a maintenance round is
// interruptible from within: the one wide task polls the context every few
// hundred firings, and a cancellation that lands between two of those polls
// — far from any round boundary — rolls the transaction back.
func TestApplyCtxInterruptsInsideRound(t *testing.T) {
	const n = 1 << 15
	tx := Tx{Insert: []*term.Fact{term.NewFact("r", term.Int(1))}}
	var st eval.Stats
	m := wideView(t, n, Options{Stats: &st})
	before := st.Firings
	probe := newCountdownCtx(1 << 30)
	if _, err := m.ApplyCtx(probe, tx); err != nil {
		t.Fatal(err)
	}
	polls := int(1<<30 - probe.remaining)
	firings := st.Firings - before
	if firings < n {
		t.Fatalf("%d firings, want at least %d", firings, n)
	}
	if polls < firings/256 {
		t.Fatalf("%d polls for %d firings, want at least one per 256", polls, firings)
	}

	m = wideView(t, n, Options{})
	pre, preEDB := m.Snapshot(), len(m.EDBFacts())
	_, err := m.ApplyCtx(newCountdownCtx(polls/2), tx)
	if !errors.Is(err, lderr.Canceled) {
		t.Fatalf("cancel at poll %d of %d: want lderr.Canceled, got %v", polls/2, polls, err)
	}
	if m.Snapshot() != pre || len(m.EDBFacts()) != preEDB {
		t.Fatal("canceled Apply changed the view")
	}
}

// TestApplyMaxDerivedStopsAtTheBound pins that the derivation bound is
// enforced at the insertion that exceeds it, not after the round that
// breached it: every firing of the wide task inserts one fact, and the
// firing whose fact breaches the bound is the last.
func TestApplyMaxDerivedStopsAtTheBound(t *testing.T) {
	const n, bound = 1 << 15, 10
	var st eval.Stats
	m := wideView(t, n, Options{Stats: &st, MaxDerived: bound})
	pre, before := m.Snapshot(), st
	_, err := m.Apply(Tx{Insert: []*term.Fact{term.NewFact("r", term.Int(1))}})
	var le *lderr.LimitError
	if !errors.As(err, &le) || le.Limit != bound {
		t.Fatalf("want LimitError{%d}, got %v", bound, err)
	}
	if m.Snapshot() != pre {
		t.Fatal("breaching transaction published a snapshot")
	}
	if d := st.Derived - before.Derived; d > bound {
		t.Errorf("%d facts derived under a bound of %d", d, bound)
	}
	if f := st.Firings - before.Firings; f > bound {
		t.Errorf("%d firings before the bound of %d stopped the round", f, bound)
	}
}
