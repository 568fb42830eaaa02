package ldl1

import (
	"context"
	"errors"
	"testing"
	"time"
)

const divergentSrc = `
	nat(z).
	nat(s(X)) <- nat(X).
`

const ancestorProg = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(a, b). parent(b, c). parent(c, d).
`

func TestNewParseError(t *testing.T) {
	_, err := New(`p(X <- q(X).`)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Line == 0 {
		t.Errorf("ParseError carries no line: %+v", pe)
	}
}

func TestWithDeadline(t *testing.T) {
	eng, err := New(divergentSrc, WithDeadline(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	// The sentinel unwraps to the stdlib one.
	_, err = eng.Run()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to context.DeadlineExceeded: %v", err)
	}
	// A terminating program under the same deadline succeeds.
	ok, err := New(ancestorProg, WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ok.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Facts("ancestor")); got != 6 {
		t.Errorf("ancestor = %d, want 6", got)
	}
}

func TestRunCtxCanceled(t *testing.T) {
	eng, err := New(ancestorProg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunCtx(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunCtx: want ErrCanceled, got %v", err)
	}
	if _, err := eng.QueryCtx(ctx, "ancestor(a, X)"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("QueryCtx: want ErrCanceled, got %v", err)
	}
	// The engine is still usable afterwards.
	ans, err := eng.Query("ancestor(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Errorf("answers after canceled run = %d, want 3", ans.Len())
	}
}

func TestQueryCtxCanceledWithMagic(t *testing.T) {
	eng, err := New(ancestorProg, WithMagic(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryCtx(ctx, "ancestor(a, X)"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("magic QueryCtx: want ErrCanceled, got %v", err)
	}
	ans, err := eng.Query("ancestor(a, X)")
	if err != nil || ans.Len() != 3 {
		t.Fatalf("magic query after cancel: ans=%v err=%v", ans, err)
	}
}

func TestWithMemBudgetEngine(t *testing.T) {
	eng, err := New(divergentSrc, WithMemBudget(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var me *MemBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("want *MemBudgetError, got %v", err)
	}
	if me.Budget != 1<<12 {
		t.Errorf("budget = %d", me.Budget)
	}
}

func TestWithLimitEngine(t *testing.T) {
	eng, err := New(divergentSrc, WithLimit(50))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Limit != 50 {
		t.Errorf("limit = %d", le.Limit)
	}
}

// TestMaterializedCtxAndLimit covers the incremental view: a canceled
// context and a limit breach both roll the view back to its pre-call state,
// and the view keeps working afterwards.
func TestMaterializedCtxAndLimit(t *testing.T) {
	eng, err := New(ancestorProg, WithLimit(64))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	before := mustModel(t, mat).Len()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mat.AssertCtx(ctx, "parent(d, e)."); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AssertCtx: want ErrCanceled, got %v", err)
	}
	if got := mustModel(t, mat).Len(); got != before {
		t.Fatalf("canceled AssertCtx changed the model: %d -> %d", before, got)
	}

	// The same assertion on a live context succeeds and maintains the view.
	res, err := mat.Assert("parent(d, e).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted == 0 {
		t.Error("assert after cancel inserted nothing")
	}
	ans, err := mat.Query("ancestor(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Errorf("ancestor(a, X) answers = %d, want 4", ans.Len())
	}

	// WithLimit bounds each transaction: extending the chain by ten edges
	// in one Assert derives over a hundred facts, breaking the 64-fact
	// budget and rolling back.
	chain := "parent(e, f). parent(f, g). parent(g, h). parent(h, i). parent(i, j). parent(j, k). parent(k, l). parent(l, m). parent(m, n). parent(n, o)."
	pre := mustModel(t, mat).Len()
	_, err = mat.Assert(chain)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("breaching Assert: want *LimitError, got %v", err)
	}
	if got := mustModel(t, mat).Len(); got != pre {
		t.Fatalf("breaching Assert changed the model: %d -> %d", pre, got)
	}
}
