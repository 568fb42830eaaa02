package ldl1

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

func TestQuickstart(t *testing.T) {
	eng, err := New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(abe, bob). parent(bob, carl). parent(carl, dee).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Fatalf("answers: %s", ans)
	}
	if got := ans.String(); !strings.Contains(got, "W = bob") || !strings.Contains(got, "W = dee") {
		t.Errorf("answers = %q", got)
	}
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.Contains("ancestor(bob, dee)")
	if err != nil || !ok {
		t.Errorf("Contains = %v, %v", ok, err)
	}
	if facts := m.Facts("ancestor"); len(facts) != 6 {
		t.Errorf("ancestor facts = %v", facts)
	}
}

func TestGroundQueryYesNo(t *testing.T) {
	eng, err := New(`edge(a, b). path(X, Y) <- edge(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	yes, err := eng.Query("path(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if yes.Empty() || yes.String() != "yes" {
		t.Errorf("ground true query: %q", yes)
	}
	no, err := eng.Query("path(b, a)")
	if err != nil {
		t.Fatal(err)
	}
	if !no.Empty() || no.String() != "no" {
		t.Errorf("ground false query: %q", no)
	}
}

func TestEngineLDL15AutoRewrite(t *testing.T) {
	eng, err := New(`
		r(t1, s1, c1, mon). r(t1, s1, c2, tue). r(t2, s1, c3, wed).
		out(T, <S>, <D>) <- r(T, S, C, D).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query("out(t1, S, D)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("answers = %s", ans)
	}
	// WithoutRewrite must reject the same program.
	if _, err := New(`
		r(t1, s1, c1, mon).
		out(T, <S>, <D>) <- r(T, S, C, D).
	`, WithoutRewrite()); err == nil {
		t.Error("WithoutRewrite should reject LDL1.5 heads")
	}
}

func TestEngineMagicMatchesBaseline(t *testing.T) {
	src := `
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
	`
	mk := func(opts ...Option) *Engine {
		eng, err := New(src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			mustAddFact(t, eng, NewFact("par", Sym(nodeName(i)), Sym(nodeName(i+1))))
		}
		return eng
	}
	base, err := mk().Query("anc(n47, W)")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	magic, err := mk(WithMagic(true), WithStats(&stats)).Query("anc(n47, W)")
	if err != nil {
		t.Fatal(err)
	}
	if base.String() != magic.String() {
		t.Errorf("magic differs:\n%s\nvs\n%s", magic, base)
	}
	if stats.Derived > 30 {
		t.Errorf("magic derived %d facts; expected a handful", stats.Derived)
	}
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestEngineRejectsBadPrograms(t *testing.T) {
	cases := []string{
		"p(<X>) <- p(X). p(1).",                      // Russell (§2.3)
		"even(s(X)) <- int(X), not even(X). int(0).", // §1 even
		"p(X, Y) <- q(X).",                           // unsafe
		"p(X) <- q(X)",                               // syntax
	}
	for _, src := range cases {
		if _, err := New(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestEngineAddFactsAndDB(t *testing.T) {
	eng, err := New(`anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFacts("parent(a, b). parent(b, c)."); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFacts("bad(X) <- parent(X, X)."); err == nil {
		t.Error("AddFacts must reject rules")
	}
	eng.AddDB(workload.ParentChain(5))
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := m.Contains("anc(n0, n5)")
	if !ok {
		t.Error("workload facts not visible")
	}
	ok, _ = m.Contains("anc(a, c)")
	if !ok {
		t.Error("text facts not visible")
	}
	// Every load after a read is maintained into the model: it equals that
	// of a twin engine that loads the same facts before its first read.
	eng.AddFacts("parent(c, d).")
	m2, _ := eng.Run()
	if ok, _ := m2.Contains("anc(a, d)"); !ok {
		t.Error("model not maintained after AddFacts")
	}
	eng.AddDB(workload.ParentChain(7))
	mustAddFact(t, eng, NewFact("parent", Sym("d"), Sym("n0")))
	m3, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(`anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	twin.AddDB(workload.ParentChain(7))
	if err := twin.AddFacts("parent(a, b). parent(b, c). parent(c, d). parent(d, n0)."); err != nil {
		t.Fatal(err)
	}
	tm, err := twin.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m3.DB().Equal(tm.DB()) {
		t.Errorf("maintained model:\n%s\nfrom scratch:\n%s", m3, tm)
	}
	if m2.Len() == m3.Len() {
		t.Error("a model Run returned changed under a later load")
	}
}

func TestEngineStrataAndPositive(t *testing.T) {
	eng, err := New(`
		a(X) <- e(X).
		b(X) <- e(X), not a(X).
		e(1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// The finest layering: the EDB predicate in layer 0, then one layer
	// per component in dependency order.
	st := eng.Strata()
	if want := map[string]int{"e": 0, "a": 1, "b": 2}; !maps.Equal(st, want) {
		t.Errorf("strata = %v, want %v", st, want)
	}
	st["a"] = 7
	if eng.Strata()["a"] != 1 {
		t.Error("Strata hands out the engine's own map")
	}
	if eng.IsPositive() {
		t.Error("program with negation reported positive")
	}
	eng2, _ := New("p(X) <- q(X). q(1).")
	if !eng2.IsPositive() {
		t.Error("positive program misreported")
	}
}

func TestEngineExplainQuery(t *testing.T) {
	eng, err := New(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	adorned, rewritten, plan, err := eng.ExplainQuery("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(adorned, "anc^bf") {
		t.Errorf("adorned = %s", adorned)
	}
	if !strings.Contains(rewritten, "magic__anc__bf(a).") {
		t.Errorf("rewritten = %s", rewritten)
	}
	if !strings.Contains(plan, "par(X, Y)") {
		t.Errorf("plan = %s", plan)
	}
	sup, err := New("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).", WithSupplementaryMagic())
	if err != nil {
		t.Fatal(err)
	}
	if _, rewritten, _, err := sup.ExplainQuery("anc(a, W)"); err != nil || !strings.Contains(rewritten, "sup__") {
		t.Errorf("supplementary engine explains the rewriting %s (%v), not the one it runs", rewritten, err)
	}
}

func TestTermConstructors(t *testing.T) {
	s := SetOf(Num(2), Num(1), Num(2))
	if s.String() != "{1, 2}" {
		t.Errorf("SetOf = %s", s)
	}
	if !Equal(MustParseTerm("{1, 2}"), s) {
		t.Error("ParseTerm and SetOf disagree")
	}
	f := Func("f", Sym("a"), Variable("X"), Text("hi"), EmptySet)
	if f.String() != `f(a, X, "hi", {})` {
		t.Errorf("Func = %s", f)
	}
	if Compare(Num(1), Num(2)) >= 0 {
		t.Error("Compare order wrong")
	}
}

func TestPartCostEndToEnd(t *testing.T) {
	eng, err := New(`
		part(P, <S>) <- p(P, S).
		tc({X}, C) <- q(X, C).
		tc({X}, C) <- part(X, S), tc(S, C).
		tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
		result(X, C) <- tc(S, C), member(X, S), S = {X}.
	`)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDB(workload.BOM(2, 2))
	ans, err := eng.Query("result(1, C)")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("root cost answers = %s", ans)
	}
	// Leaves are parts 4..7 with cost 10+id; root cost = sum = 62.
	if got := ans.String(); got != "C = 62" {
		t.Errorf("root cost = %q", got)
	}
}

func TestExplain(t *testing.T) {
	eng, err := New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(abe, bob). parent(bob, carl).
	`)
	if err != nil {
		t.Fatal(err)
	}
	why, err := eng.Explain("ancestor(abe, carl)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ancestor(abe, carl)", "parent(abe, bob)", "[fact]"} {
		if !strings.Contains(why, want) {
			t.Errorf("Explain missing %q:\n%s", want, why)
		}
	}
	if _, err := eng.Explain("ancestor(carl, abe)"); err == nil {
		t.Error("explaining an absent fact should fail")
	}
	if _, err := eng.Explain("not a fact"); err == nil {
		t.Error("garbage input should fail")
	}
}

// TestExplainUnderBounds: Explain evaluates under the engine's bounds.  The
// program diverges, so an Explain that ignored them would never return: the
// test waits on its own timer and fails instead of hanging.
func TestExplainUnderBounds(t *testing.T) {
	for name, c := range map[string]struct {
		opt  Option
		want func(error) bool
	}{
		"limit":    {WithLimit(100), func(err error) bool { var le *LimitError; return errors.As(err, &le) }},
		"budget":   {WithMemBudget(4096), func(err error) bool { var me *MemBudgetError; return errors.As(err, &me) }},
		"deadline": {WithDeadline(50 * time.Millisecond), func(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }},
	} {
		eng, err := New("nat(0). nat(X + 1) <- nat(X).", c.opt)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := eng.Explain("nat(0)")
			done <- err
		}()
		select {
		case err := <-done:
			if !c.want(err) {
				t.Errorf("%s: Explain = %v", name, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: Explain still running after 3 s", name)
		}
	}
}

// TestMaterializeUnderBounds: a view's initial evaluation runs under the
// engine's bounds, as Run does.  The program diverges; a backstop limit far
// above what the deadline or the budget lets through ends a Materialize that
// ignored them, with the wrong error.
func TestMaterializeUnderBounds(t *testing.T) {
	for name, c := range map[string]struct {
		opt  Option
		want func(error) bool
	}{
		"limit":    {WithLimit(100), func(err error) bool { var le *LimitError; return errors.As(err, &le) && le.Limit == 100 }},
		"budget":   {WithMemBudget(4096), func(err error) bool { var me *MemBudgetError; return errors.As(err, &me) }},
		"deadline": {WithDeadline(5 * time.Millisecond), func(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }},
	} {
		// The program diverges once on(1) is loaded: before the first read,
		// or after one, when the next read inserts it into the model.
		for _, readFirst := range []bool{false, true} {
			eng, err := New("nat(0). nat(X + 1) <- nat(X), on(1).", WithLimit(1<<19), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if readFirst {
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.AddFacts("on(1)."); err != nil {
				t.Fatal(err)
			}
			_, merr := eng.Materialize()
			_, rerr := eng.Run()
			if !c.want(merr) || !c.want(rerr) {
				t.Errorf("%s, read first %v: Materialize = %v, Run = %v", name, readFirst, merr, rerr)
			}
		}
	}
}

// TestCanceledReadAfterDivergingLoad: a load only queues its facts, so one
// that makes the program diverge returns at once, and the read that
// inserts them runs under its own context: canceling it stops the
// transaction, and the engine answers the next read as before.
func TestCanceledReadAfterDivergingLoad(t *testing.T) {
	eng, err := New("nat(0). nat(X + 1) <- nat(X), on(1).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFacts("on(1)."); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		if _, err := eng.RunCtx(ctx); !errors.Is(err, ErrCanceled) {
			t.Fatalf("RunCtx after a diverging load: %v, want ErrCanceled", err)
		}
	}
	if n := eng.edb.RelOrNil("on").Len(); n != 1 {
		t.Errorf("the extensional database holds %d on facts, want 1", n)
	}
}

// TestFactListsAreGround: a fact list is ground (§7), as a program's facts
// are.  A variable in one is a parse error at its fact, and nothing of the
// list is loaded.
func TestFactListsAreGround(t *testing.T) {
	eng, err := New(prepProg)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	const list = "par(d, f).\npar(X, a)."
	for name, load := range map[string]func() error{
		"AddFacts": func() error { return eng.AddFacts(list) },
		"Assert":   func() error { _, err := mv.Assert(list); return err },
		"Retract":  func() error { _, err := mv.Retract(list); return err },
		"Update":   func() error { _, err := mv.Update("", list); return err },
	} {
		var pe *ParseError
		if err := load(); !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "facts may not contain variables") {
			t.Errorf("%s: %v, want a parse error at line 2", name, err)
		}
	}
	want := "W = b\nW = c\nW = d\nW = e"
	if got := mustStr(t)(eng.Query("anc(a, W)")); got != want {
		t.Errorf("engine after rejected loads: %q", got)
	}
	if got := mustStr(t)(mv.Query("anc(a, W)")); got != want {
		t.Errorf("view after rejected transactions: %q", got)
	}
}

// TestAddFactIsGround: AddFact takes ground facts only (§7), as AddFacts
// does.  A fact with a variable gets the error AddFacts wraps for its text,
// and neither the model nor a query sees it.
func TestAddFactIsGround(t *testing.T) {
	eng, err := New(prepProg)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.AddFact(NewFact("par", Sym("a"), Variable("X")))
	listErr := eng.AddFacts("par(a, X).")
	if err == nil || listErr == nil || !strings.HasSuffix(listErr.Error(), ": "+err.Error()) {
		t.Fatalf("AddFact: %v; AddFacts: %v; want the same §7 error", err, listErr)
	}
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Facts("anc"); len(got) != 8 || slices.ContainsFunc(got, func(f string) bool { return strings.Contains(f, "X") }) {
		t.Errorf("model after a rejected fact: %v", got)
	}
	if got, want := mustStr(t)(eng.Query("anc(a, W)")), "W = b\nW = c\nW = d\nW = e"; got != want {
		t.Errorf("engine after a rejected fact: %q, want %q", got, want)
	}
}

// mustAddFact inserts f into eng, failing the test on an error.
func mustAddFact(t *testing.T, eng *Engine, f *Fact) {
	t.Helper()
	if err := eng.AddFact(f); err != nil {
		t.Fatal(err)
	}
}

// TestViewSharesStatsSink: an engine's loads and reads and its view's
// transactions count into one WithStats sink from two goroutines.  Under
// -race, a view writing the sink outside the lock the engine's reads merge
// under is a reported race.
func TestViewSharesStatsSink(t *testing.T) {
	var st Stats
	eng, err := New(prepProg, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if st.Derived == 0 {
		t.Fatal("the sink did not count the view's initial evaluation")
	}
	before := st
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 25; i++ {
			if _, err := mv.Assert(fmt.Sprintf("par(d, v%d).", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		mustAddFact(t, eng, NewFact("par", Sym("d"), Sym(fmt.Sprintf("e%d", i))))
		if _, err := eng.Query("anc(a, W)"); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	// Each of the 50 writes derives at least its anc(d, _) fact.
	if d := st.Derived - before.Derived; d < 50 {
		t.Errorf("the sink counted %d derived facts for 50 writes", d)
	}
}

// TestExplainConcurrentWithLoads: Explain reads the extensional database
// under the engine's lock, so under the race detector it may run beside
// AddFacts; every explanation sees a load wholly or not at all.
func TestExplainConcurrentWithLoads(t *testing.T) {
	eng, err := New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(abe, bob).
	`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := eng.AddFacts(fmt.Sprintf("parent(bob, c%d). parent(c%d, d%d).", i, i, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		why, err := eng.Explain("ancestor(abe, bob)")
		if err != nil || !strings.Contains(why, "parent(abe, bob)") {
			t.Fatalf("Explain = %q, %v", why, err)
		}
	}
	<-done
	if _, err := eng.Explain("ancestor(abe, d49)"); err != nil {
		t.Fatal(err)
	}
}

func TestWithLimit(t *testing.T) {
	eng, err := New(`
		nat(z).
		nat(s(X)) <- nat(X).
	`, WithLimit(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("diverging program should hit the derivation limit")
	}
}

// TestLoadBreachingLimit: a load after a read is one maintained transaction
// under WithLimit.  One that derives past the limit still loads its facts
// and returns nil; the engine drops its model, and the next read evaluates
// from scratch and reports the *LimitError that evaluation meets.
func TestLoadBreachingLimit(t *testing.T) {
	eng, err := New(`anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`, WithLimit(40))
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDB(workload.ParentChain(4)) // 10 anc facts
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var chain strings.Builder
	for i := 4; i < 12; i++ {
		fmt.Fprintf(&chain, "parent(n%d, n%d). ", i, i+1)
	}
	if err := eng.AddFacts(chain.String()); err != nil {
		t.Fatalf("a load breaching the limit returned %v, want nil", err)
	}
	for _, read := range []func() error{
		func() error { _, err := eng.Run(); return err },
		func() error { _, err := eng.Query("anc(n0, W)"); return err },
		func() error { _, err := eng.Materialize(); return err },
	} {
		var le *LimitError
		if err := read(); !errors.As(err, &le) || le.Limit != 40 {
			t.Errorf("read after the breaching load: %v, want a *LimitError at 40", err)
		}
	}
	if got := eng.edb.RelOrNil("parent").Len(); got != 12 {
		t.Errorf("the extensional database holds %d parent facts, want 12", got)
	}

	// The same chain loaded edge by edge with a Run after each load: every
	// Run answers as a fresh engine with the edges loaded so far does, and
	// the limit falls between 36 (a chain of 8) and 45 anc facts.
	eng, err = New(`anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`, WithLimit(40))
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDB(workload.ParentChain(4))
	for i := 4; i < 12; i++ {
		edge := fmt.Sprintf("parent(n%d, n%d).", i, i+1)
		if err := eng.AddFacts(edge); err != nil {
			t.Fatal(err)
		}
		m, err := eng.Run()
		fresh, ferr := New(`anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).`, WithLimit(40))
		if ferr != nil {
			t.Fatal(ferr)
		}
		fresh.AddDB(workload.ParentChain(i + 1))
		fm, ferr := fresh.Run()
		var le *LimitError
		switch {
		case ferr != nil:
			if !errors.As(ferr, &le) || !errors.As(err, &le) {
				t.Errorf("chain of %d: Run = %v, a fresh engine's %v", i+1, err, ferr)
			}
		case err != nil:
			t.Errorf("chain of %d: Run = %v, a fresh engine's succeeds", i+1, err)
		case !m.DB().Equal(fm.DB()):
			t.Errorf("chain of %d: Run answers\n%s\na fresh engine\n%s", i+1, m, fm)
		}
	}
}

func TestSupplementaryMagicOption(t *testing.T) {
	src := `
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c). par(c, d).
	`
	base, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(src, WithSupplementaryMagic())
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Query("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sup.Query("anc(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("supplementary magic differs:\n%s\nvs\n%s", got, want)
	}
}

// TestAddDBSharesCallerFacts: on either side of the bulk-load resharding
// line (1 024 facts) the engine holds the caller's own canonical facts, and
// the model equals that of a twin engine that loaded the same facts as text.
func TestAddDBSharesCallerFacts(t *testing.T) {
	const n = 1024
	const prog = "r(X) <- big(X, Y), small(Y, Z)."
	src := store.NewDB()
	var text strings.Builder
	for i := 0; i < n; i++ {
		src.Insert(term.NewFact("big", term.Int(i), term.Int(i+1)))
		fmt.Fprintf(&text, "big(%d, %d). ", i, i+1)
		if i > 0 {
			src.Insert(term.NewFact("small", term.Int(i), term.Int(i+1)))
			fmt.Fprintf(&text, "small(%d, %d). ", i, i+1)
		}
	}
	eng, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddDB(src)
	for pred, want := range map[string]int{"big": n, "small": n - 1} {
		r := eng.edb.RelOrNil(pred)
		if r.Len() != want {
			t.Errorf("%s: engine holds %d facts, want %d", pred, r.Len(), want)
		}
		for _, f := range src.RelOrNil(pred).All() {
			if g, _ := r.Get(term.NewFact(f.Pred, f.Args...)); g != f {
				t.Fatalf("%s: the engine does not hold the caller's own %s", pred, f)
			}
		}
	}
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Facts("r")); got != n-1 {
		t.Errorf("r has %d facts, want %d", got, n-1)
	}
	twin, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.AddFacts(text.String()); err != nil {
		t.Fatal(err)
	}
	tm, err := twin.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.DB().Equal(tm.DB()) || !tm.DB().Equal(m.DB()) {
		t.Error("AddDB model differs from its text-loaded twin")
	}
}
