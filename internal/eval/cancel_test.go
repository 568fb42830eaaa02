package eval

import (
	"context"
	"errors"
	"testing"

	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// countdownCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls, so tests can cancel evaluation deterministically
// at every possible cancellation point.
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

// TestCancellationOracle drives evaluation to completion once, then
// replays it with the context canceling at every poll index in turn.  Every
// run must either return the complete model or fail with lderr.Canceled
// leaving the input database untouched — a partial model is never returned.
func TestCancellationOracle(t *testing.T) {
	p := parser.MustParseProgram(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	`)
	edb := store.NewDB()
	for i := 0; i < 12; i++ {
		edb.Insert(term.NewFact("parent", term.Int(i), term.Int(i+1)))
	}
	pristine := edb.Clone()
	full, err := Eval(p, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}

	canceled, completed := 0, 0
	for polls := 0; polls < 64; polls++ {
		ctx := newCountdownCtx(polls)
		got, err := Eval(p, edb, Options{Ctx: ctx})
		switch {
		case err != nil:
			if !errors.Is(err, lderr.Canceled) {
				t.Fatalf("polls=%d: want lderr.Canceled, got %v", polls, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("polls=%d: error does not unwrap to context.Canceled", polls)
			}
			canceled++
		default:
			if !got.Equal(full) {
				t.Fatalf("polls=%d: completed run returned a model different from the full one", polls)
			}
			completed++
		}
		if !edb.Equal(pristine) {
			t.Fatalf("polls=%d: input database mutated", polls)
		}
	}
	if canceled == 0 || completed == 0 {
		t.Fatalf("oracle did not exercise both outcomes (canceled=%d completed=%d)", canceled, completed)
	}
}

// TestEvalDeadline maps an expired deadline to the DeadlineExceeded
// sentinel (distinct from Canceled) for a program that would otherwise
// diverge.
func TestEvalDeadline(t *testing.T) {
	p := parser.MustParseProgram(`
		nat(z).
		nat(s(X)) <- nat(X).
	`)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := Eval(p, store.NewDB(), Options{Ctx: ctx})
	if !errors.Is(err, lderr.DeadlineExceeded) {
		t.Fatalf("want lderr.DeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to context.DeadlineExceeded")
	}
	if errors.Is(err, lderr.Canceled) {
		t.Fatalf("deadline error must not match the Canceled sentinel")
	}
}

// TestMemBudget pins the derived-byte guard: a diverging program fails
// with MemBudgetError deterministically, and a terminating one under a
// generous budget is unaffected.
func TestMemBudget(t *testing.T) {
	div := parser.MustParseProgram(`
		nat(z).
		nat(s(X)) <- nat(X).
	`)
	_, err := Eval(div, store.NewDB(), Options{MemBudget: 1 << 12})
	var me *lderr.MemBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("want MemBudgetError, got %v", err)
	}
	if me.Budget != 1<<12 {
		t.Errorf("budget = %d", me.Budget)
	}
	ok := parser.MustParseProgram(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c). par(c, d).
	`)
	db, err := Eval(ok, store.NewDB(), Options{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if db.Rel("anc").Len() != 6 {
		t.Errorf("anc = %d", db.Rel("anc").Len())
	}
}

// TestSolveCtxCanceled covers the query path: an already-canceled context
// stops solution enumeration with the typed error.
func TestSolveCtxCanceled(t *testing.T) {
	db := store.NewDB()
	for i := 0; i < 8; i++ {
		db.Insert(term.NewFact("p", term.Int(i)))
	}
	q, err := parser.ParseQuery("p(X)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, q.Body, db); !errors.Is(err, lderr.Canceled) {
		t.Fatalf("want lderr.Canceled, got %v", err)
	}
	sols, err := SolveCtx(context.Background(), q.Body, db)
	if err != nil || len(sols) != 8 {
		t.Fatalf("live context: sols=%d err=%v", len(sols), err)
	}
}
