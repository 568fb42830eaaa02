package ldl1

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const viewAncestor = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(abe, bob). parent(bob, carl). parent(carl, dee).
`

func mustView(t *testing.T, src string, opts ...Option) *Materialized {
	t.Helper()
	e, err := New(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func TestPreparedViewExec(t *testing.T) {
	mv := mustView(t, viewAncestor)
	pv, err := mv.Prepare("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	if pv.NumArgs() != 1 {
		t.Fatalf("NumArgs = %d, want 1", pv.NumArgs())
	}
	// No args re-runs the original constants.
	ans, err := pv.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Fatalf("ancestor(abe, W): %d answers, want 3\n%s", ans.Len(), ans)
	}
	// Spliced constant.
	ans, err = pv.Exec(Sym("carl"))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("ancestor(carl, W): %d answers, want 1\n%s", ans.Len(), ans)
	}
	// Parity with the unprepared path.
	direct, err := mv.Query("ancestor(carl, W)")
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != ans.String() {
		t.Fatalf("prepared %q != direct %q", ans, direct)
	}
	if _, err := pv.Exec(Sym("a"), Sym("b")); err == nil {
		t.Fatal("arity-mismatched Exec succeeded")
	}
}

func TestViewCacheHitAndInvalidation(t *testing.T) {
	mv := mustView(t, viewAncestor)
	pv, err := mv.Prepare("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pv.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _, entries := mv.CacheCounters()
	if hits < 2 || entries == 0 {
		t.Fatalf("after 3 identical Execs: hits=%d misses=%d entries=%d, want >=2 hits", hits, misses, entries)
	}

	// Differently spelled but identically shaped queries share the entry.
	before, _, _, _ := mv.CacheCounters()
	ans, err := mv.Query("ancestor(abe, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 || ans.Vars[len(ans.Vars)-1] != "Z" {
		t.Fatalf("renamed query: %v / %d answers", ans.Vars, ans.Len())
	}
	after, _, _, _ := mv.CacheCounters()
	if after != before+1 {
		t.Fatalf("renamed spelling missed the cache: hits %d -> %d", before, after)
	}

	// A write invalidates: the next read sees the new fact.
	if _, err := mv.Assert("parent(dee, eve)."); err != nil {
		t.Fatal(err)
	}
	ans, err = pv.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Fatalf("after assert: %d answers, want 4\n%s", ans.Len(), ans)
	}
}

func TestViewReadLimits(t *testing.T) {
	mv := mustView(t, viewAncestor)
	ctx := context.Background()

	// Row limit breach is a typed LimitError...
	_, err := mv.QueryOpts(ctx, "ancestor(X, Y)", ReadOpts{MaxRows: 2})
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != 2 {
		t.Fatalf("MaxRows=2: err = %v, want *LimitError{2}", err)
	}
	// ...enforced identically on a cache hit.
	if _, err := mv.QueryOpts(ctx, "ancestor(abe, W)", ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	_, err = mv.QueryOpts(ctx, "ancestor(abe, W)", ReadOpts{MaxRows: 1})
	if !errors.As(err, &le) {
		t.Fatalf("MaxRows on cache hit: err = %v, want *LimitError", err)
	}
	// Within the limit succeeds.
	ans, err := mv.QueryOpts(ctx, "ancestor(X, Y)", ReadOpts{MaxRows: 100})
	if err != nil || ans.Len() != 6 {
		t.Fatalf("MaxRows=100: %v, %d answers, want 6", err, ans.Len())
	}

	// Memory budget breach (fresh query shape: budgets bound evaluation
	// work, so a cached answer set would not re-pay it).
	_, err = mv.QueryOpts(ctx, "parent(X, Y)", ReadOpts{MemBudget: 16})
	var me *MemBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("MemBudget=16: err = %v, want *MemBudgetError", err)
	}

	// Expired per-read deadline (multi-literal shape so the read actually
	// evaluates instead of being served from the answer cache).
	_, err = mv.QueryOpts(ctx, "parent(X, Y), ancestor(Y, Z)", ReadOpts{Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Deadline=1ns: err = %v, want deadline exceeded", err)
	}
}

func TestViewUpdateAtomic(t *testing.T) {
	mv := mustView(t, viewAncestor)
	res, err := mv.Update("parent(dee, eve).", "parent(abe, bob).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted == 0 || res.Deleted == 0 {
		t.Fatalf("Update result %+v, want both sides nonzero", res)
	}
	m := mv.Model()
	if ok, _ := m.Contains("parent(dee, eve)"); !ok {
		t.Fatal("inserted fact missing")
	}
	if ok, _ := m.Contains("parent(abe, bob)"); ok {
		t.Fatal("retracted fact still present")
	}
	if ok, _ := m.Contains("ancestor(abe, dee)"); ok {
		t.Fatal("derived fact of the retracted base survived")
	}
}

func TestViewNonCanonicalPath(t *testing.T) {
	// Repeated variables and multi-literal bodies bypass the cache but
	// still answer correctly with limits applied.
	mv := mustView(t, viewAncestor)
	ans, err := mv.QueryOpts(context.Background(), "ancestor(X, X)", ReadOpts{MaxRows: 10})
	if err != nil || ans.Len() != 0 {
		t.Fatalf("ancestor(X, X): %v, %d answers", err, ans.Len())
	}
	ans, err = mv.Query("parent(X, Y), ancestor(Y, Z)")
	if err != nil || ans.Len() == 0 {
		t.Fatalf("multi-literal: %v, %d answers", err, ans.Len())
	}
	if h, m, _, _ := mv.CacheCounters(); h != 0 && m == 0 {
		t.Fatalf("non-canonical queries touched the cache: hits=%d misses=%d", h, m)
	}
}

func TestViewWithoutQueryCache(t *testing.T) {
	mv := mustView(t, viewAncestor, WithoutQueryCache())
	for i := 0; i < 3; i++ {
		if _, err := mv.Query("ancestor(abe, W)"); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, ev, en := mv.CacheCounters(); h+m+ev+en != 0 {
		t.Fatalf("WithoutQueryCache counters nonzero: %d %d %d %d", h, m, ev, en)
	}
}

// TestViewWithoutReorderOrdersStatically: a view orders the body of every
// maintenance task against the database the task reads, as its engine
// orders evaluation, and in the static order under WithoutReorder.
// Asserting d(a) fires h's rule with d(a) first; the static order then
// scans big and, per big fact, small — 1 + 1 + 200 full scans — where the
// cost order scans the three small facts first and big once per small fact.
func TestViewWithoutReorderOrdersStatically(t *testing.T) {
	var facts strings.Builder
	for i := range 200 {
		fmt.Fprintf(&facts, "big(p%d, x%d).\n", i, i)
	}
	facts.WriteString("small(b0, y0). small(b1, y1). small(b2, y2).")
	scans := map[bool]int{}
	for _, static := range []bool{false, true} {
		var st Stats
		opts := []Option{WithStats(&st)}
		if static {
			opts = append(opts, WithoutReorder())
		}
		e, err := New(`h(A, B, P) <- d(A), big(P, X), small(B, Y).`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddFacts(facts.String()); err != nil {
			t.Fatal(err)
		}
		mv, err := e.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		before := st
		if res, err := mv.Assert("d(a)."); err != nil || res.Inserted != 1+600 {
			t.Fatalf("static=%v: Assert = %+v, %v; want 601 facts inserted", static, res, err)
		}
		scans[static] = st.FullScans - before.FullScans
	}
	if scans[true] != 1+1+200 || scans[false] >= scans[true] {
		t.Errorf("full scans of the maintenance task: %d static, %d cost-ordered; want 202 and fewer",
			scans[true], scans[false])
	}
}
