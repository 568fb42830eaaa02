package ldl1

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ldl1/internal/lderr"
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
	// The largest limits, on a one-column scan, bound nothing.
	ans, err = mustView(t, "p(a). p(b). p(c).").QueryOpts(ctx, "p(X)", ReadOpts{MaxRows: math.MaxInt, MemBudget: math.MaxInt64})
	if err != nil || ans.Len() != 3 {
		t.Fatalf("MaxRows=MaxInt: %v, %d answers, want 3", err, ans.Len())
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
	m := mustModel(t, mv)
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

// TestEngineWritesOneHandle: an engine asserts and retracts as its clones
// do.  A transaction first inserts the loads queued before it, and records
// itself in the extensional database only on commit: a WithMagic engine's
// magic reads and Explain, which evaluate that database, follow a
// retraction as Run does, and a canceled or limit-breaching transaction
// changes neither the database nor the model.  A WithMagic engine whose
// reads have not needed the model writes its database alone and reports
// that change.
func TestEngineWritesOneHandle(t *testing.T) {
	const rules = `
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	`
	for _, withMagic := range []bool{false, true} {
		name := fmt.Sprintf("magic=%v", withMagic)
		eng, err := New(rules, WithMagic(withMagic), WithLimit(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AddFacts("parent(abe, bob). parent(bob, carl)."); err != nil {
			t.Fatal(err)
		}
		if got := mustStr(t)(eng.Query("ancestor(abe, W)")); got != "W = bob\nW = carl" {
			t.Fatalf("%s: before any write: %q", name, got)
		}
		if err := eng.AddFacts("parent(carl, dee)."); err != nil { // queued
			t.Fatal(err)
		}
		res, err := eng.Retract("parent(bob, carl).")
		if err != nil {
			t.Fatal(err)
		}
		want := UpdateResult{Deleted: 5, Changed: []string{"parent", "ancestor"}}
		if withMagic {
			want = UpdateResult{Deleted: 1, Changed: []string{"parent"}}
		}
		if res.Deleted != want.Deleted || res.Inserted != 0 || !slices.Equal(res.Changed, want.Changed) {
			t.Errorf("%s: Retract = %+v, want %+v", name, res, want)
		}
		if got := mustStr(t)(eng.Query("ancestor(abe, W)")); got != "W = bob" {
			t.Errorf("%s: after the retraction: %q", name, got)
		}
		if got := mustStr(t)(eng.Query("ancestor(carl, W)")); got != "W = dee" {
			t.Errorf("%s: the load queued before the retraction: %q", name, got)
		}
		if _, err := eng.Explain("ancestor(abe, carl)"); err == nil {
			t.Errorf("%s: Explain finds a retracted derivation", name)
		}
		m := mustModel(t, eng)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.RetractCtx(ctx, "parent(abe, bob)."); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: canceled RetractCtx: %v", name, err)
		}
		var le *LimitError
		if _, err := eng.Assert("parent(dee, e1). parent(e1, e2). parent(e2, e3). parent(e3, e4)."); !errors.As(err, &le) {
			t.Errorf("%s: breaching Assert: %v", name, err)
		}
		if got := mustModel(t, eng); got.DB() != m.DB() {
			t.Errorf("%s: a failed transaction published a model:\n%s", name, got)
		}
		if got := mustStr(t)(eng.Query("ancestor(abe, W)")); got != "W = bob" {
			t.Errorf("%s: after the failed transactions: %q", name, got)
		}
		if got := mustStr(t)(eng.Query("parent(X, e1)")); got != "no" {
			t.Errorf("%s: a rolled-back insertion reached the database: %q", name, got)
		}
	}
}

// TestProgramFactsRetract: the facts the program text gives a base
// predicate are the engine's initial extensional database, so a retraction
// of one holds for every read — Run, a magic read, Explain — and survives a
// rebuild of the model, which WithMemBudget forces at every load.  A fact
// the text gives a derived predicate is part of the program: retracting it
// is an ArgError that changes nothing.
func TestProgramFactsRetract(t *testing.T) {
	const src = `
		par(a, b). par(b, c).
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		anc(z, w).
	`
	for name, opt := range map[string]Option{"plain": WithMagic(false), "magic": WithMagic(true), "budget": WithMemBudget(1 << 20)} {
		eng, err := New(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustStr(t)(eng.Query("anc(a, W)")); got != "W = b\nW = c" {
			t.Fatalf("%s: before the retraction: %q", name, got)
		}
		if _, err := eng.Retract("par(a, b)."); err != nil {
			t.Fatal(err)
		}
		var ae *lderr.ArgError
		if _, err := eng.Update("par(x, y).", "anc(z, w)."); !errors.As(err, &ae) {
			t.Errorf("%s: retracting a fact of a derived predicate: %v", name, err)
		}
		if err := eng.AddFacts("par(c, d)."); err != nil {
			t.Fatal(err)
		}
		m := mustModel(t, eng)
		for _, f := range []string{"par(a, b)", "anc(a, b)", "anc(a, c)", "par(x, y)"} {
			if in, _ := m.Contains(f); in {
				t.Errorf("%s: the model holds %s:\n%s", name, f, m)
			}
		}
		if in, _ := m.Contains("anc(z, w)"); !in {
			t.Errorf("%s: the model lost the program's anc(z, w)", name)
		}
		if got := mustStr(t)(eng.Query("anc(a, W)")); got != "no" {
			t.Errorf("%s: a read after the retraction: %q", name, got)
		}
		if got := mustStr(t)(eng.Query("anc(b, W)")); got != "W = c\nW = d" {
			t.Errorf("%s: a read after the load: %q", name, got)
		}
		if _, err := eng.Explain("anc(a, c)"); err == nil {
			t.Errorf("%s: Explain proves a retracted derivation", name)
		}
		why, err := eng.Explain("anc(b, d)")
		if err != nil || !strings.Contains(why, "par(b, c).   [fact]") || !strings.Contains(why, "par(c, d).   [given]") {
			t.Errorf("%s: Explain labels the program's and the loaded facts: %v\n%s", name, err, why)
		}
	}
}

// TestMagicWriteBuildsNoModel: a WithMagic engine whose reads have not
// needed the model writes its extensional database alone, so it can write
// and answer selective queries over a database whose whole model breaches
// WithLimit; Run then fails, and nothing of the failure stays.  A canceled
// transaction changes nothing.
func TestMagicWriteBuildsNoModel(t *testing.T) {
	var facts strings.Builder
	for i := range 40 {
		fmt.Fprintf(&facts, "par(n%d, n%d). ", i, i+1)
	}
	eng, err := New(`anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).`+facts.String(), WithMagic(true), WithLimit(100))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustStr(t)(eng.Query("anc(n37, W)")); got != "W = n38\nW = n39\nW = n40" {
		t.Fatalf("before the write: %q", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RetractCtx(ctx, "par(n38, n39)."); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled RetractCtx: %v", err)
	}
	res, err := eng.Update("par(n40, n41).", "par(n38, n39).")
	if err != nil || res.Inserted != 1 || res.Deleted != 1 || !slices.Equal(res.Changed, []string{"par"}) {
		t.Fatalf("Update = %+v, %v; want one par fact in and one out", res, err)
	}
	if got := mustStr(t)(eng.Query("anc(n37, W)")); got != "W = n38" {
		t.Errorf("after the write: %q", got)
	}
	if got := mustStr(t)(eng.Query("anc(n39, W)")); got != "W = n40\nW = n41" {
		t.Errorf("the inserted fact: %q", got)
	}
	var le *LimitError
	if _, err := eng.Run(); !errors.As(err, &le) {
		t.Errorf("Run over a model past the limit: %v", err)
	}
	if _, err := eng.Assert("par(n41, n42)."); err != nil {
		t.Errorf("a write after the failed Run: %v", err)
	}
}

// TestCloneKeepsStrict: Materialize keeps the engine's options, so a
// clone's Prepare vets a query under WithStrict as the engine's does.
func TestCloneKeepsStrict(t *testing.T) {
	mv := mustView(t, "num(1).\nnum(2).\n", WithStrict())
	var ve *VetError
	if _, err := mv.Prepare("?- num(X), X = a."); !errors.As(err, &ve) {
		t.Errorf("a strict clone prepares an ill-typed query: %v", err)
	}
	if _, err := mv.Prepare("?- num(X), X > 1."); err != nil {
		t.Errorf("a strict clone rejects a well-typed query: %v", err)
	}
}

// TestCurrentReadTakesNoLock: a read with nothing queued answers while a
// writer holds the engine's lock.
func TestCurrentReadTakesNoLock(t *testing.T) {
	eng, err := New(viewAncestor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	done := make(chan string, 1)
	go func() {
		ans, err := eng.Query("ancestor(bob, W)")
		done <- fmt.Sprint(ans, err)
	}()
	select {
	case got := <-done:
		if got != "W = carl\nW = dee <nil>" {
			t.Errorf("current read: %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a current read waits for the write lock")
	}
}
