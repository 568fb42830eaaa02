package main

import (
	"bytes"
	"strings"
	"testing"

	"ldl1"
)

func newTestEngine(t *testing.T) *ldl1.Engine {
	t.Helper()
	eng, err := ldl1.New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(abe, bob). parent(bob, carl).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func runRepl(t *testing.T, eng *ldl1.Engine, input string) string {
	t.Helper()
	var out bytes.Buffer
	if err := repl(eng, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReplQuery(t *testing.T) {
	out := runRepl(t, newTestEngine(t), "ancestor(abe, W)\n:quit\n")
	if !strings.Contains(out, "W = bob") || !strings.Contains(out, "W = carl") {
		t.Errorf("output = %q", out)
	}
}

func TestReplQueryWithPrefixAndDot(t *testing.T) {
	out := runRepl(t, newTestEngine(t), "?- ancestor(abe, carl).\n:q\n")
	if !strings.Contains(out, "yes") {
		t.Errorf("output = %q", out)
	}
	out = runRepl(t, newTestEngine(t), "ancestor(carl, abe)\n:quit\n")
	if !strings.Contains(out, "no") {
		t.Errorf("output = %q", out)
	}
}

func TestReplAssert(t *testing.T) {
	out := runRepl(t, newTestEngine(t),
		":assert parent(carl, dee).\nancestor(abe, dee)\n:quit\n")
	if !strings.Contains(out, "yes") {
		t.Errorf("assert did not take effect: %q", out)
	}
	// Rules are rejected by :assert.
	out = runRepl(t, newTestEngine(t), ":assert bad(X) <- parent(X, X).\n:quit\n")
	if !strings.Contains(out, "error") {
		t.Errorf("rule assert should error: %q", out)
	}
}

func TestReplAssertRetractIncremental(t *testing.T) {
	// assert/retract go through the materialized view: the model is
	// updated in place and queries read the maintained snapshot.
	out := runRepl(t, newTestEngine(t),
		"assert parent(carl, dee).\nancestor(abe, dee)\n:quit\n")
	if !strings.Contains(out, "model: +4 -0 facts") {
		t.Errorf("assert did not report the net change: %q", out)
	}
	if !strings.Contains(out, "yes") {
		t.Errorf("assert did not take effect: %q", out)
	}

	out = runRepl(t, newTestEngine(t),
		"assert parent(carl, dee).\nretract parent(carl, dee).\nancestor(abe, dee)\n:model\n:quit\n")
	if !strings.Contains(out, "model: +4 -0 facts") || !strings.Contains(out, "model: +0 -4 facts") {
		t.Errorf("retract did not report the net change: %q", out)
	}
	if !strings.Contains(out, "no") {
		t.Errorf("retract did not take effect: %q", out)
	}
	// :model prints the maintained snapshot, which still has the
	// program's own facts and derived closure.
	if !strings.Contains(out, "ancestor(abe, carl).") || strings.Contains(out, "dee") {
		t.Errorf(":model after retract = %q", out)
	}

	// A rule is rejected; the view stays usable.
	out = runRepl(t, newTestEngine(t),
		"assert bad(X) <- parent(X, X).\nancestor(abe, bob)\n:quit\n")
	if !strings.Contains(out, "error") || !strings.Contains(out, "yes") {
		t.Errorf("rule assert should error and recover: %q", out)
	}
}

func TestReplExplain(t *testing.T) {
	out := runRepl(t, newTestEngine(t), ":explain ancestor(abe, carl)\n:quit\n")
	if !strings.Contains(out, "[fact]") || !strings.Contains(out, "parent(abe, bob)") {
		t.Errorf("explain output = %q", out)
	}
	out = runRepl(t, newTestEngine(t), ":explain ancestor(carl, abe)\n:quit\n")
	if !strings.Contains(out, "error") {
		t.Errorf("explaining absent fact should error: %q", out)
	}
}

func TestParseExecArgs(t *testing.T) {
	args, err := parseExecArgs("a, f(b, c), {1, 2}")
	if err != nil || len(args) != 3 {
		t.Errorf("three arguments: got %v, %v", args, err)
	}
	for _, in := range []string{"a), foo(b", "a) , not b(c", "(("} {
		if args, err := parseExecArgs(in); err == nil || !strings.Contains(err.Error(), "bad :exec arguments") {
			t.Errorf("parseExecArgs(%q) = %v, %v; want a bad :exec arguments error", in, args, err)
		}
	}
}

func TestReplModelAndHelp(t *testing.T) {
	out := runRepl(t, newTestEngine(t), ":help\n:model\n:quit\n")
	if !strings.Contains(out, ":assert") {
		t.Errorf("help missing: %q", out)
	}
	if !strings.Contains(out, "ancestor(abe, carl).") {
		t.Errorf("model missing facts: %q", out)
	}
}

func TestReplErrorRecovery(t *testing.T) {
	out := runRepl(t, newTestEngine(t), "((bad syntax\nancestor(abe, bob)\n:quit\n")
	if !strings.Contains(out, "error") {
		t.Errorf("syntax error not reported: %q", out)
	}
	if !strings.Contains(out, "yes") {
		t.Errorf("REPL did not recover after error: %q", out)
	}
}

func TestReplEOF(t *testing.T) {
	// EOF without :quit exits cleanly.
	out := runRepl(t, newTestEngine(t), "ancestor(abe, bob)\n")
	if !strings.Contains(out, "yes") {
		t.Errorf("output = %q", out)
	}
}

// TestReplReadsOneModel pins a session that prepares a query and then
// asserts: from the first assert on, :exec, queries and :assert all use the
// view, and :explain says it covers the loaded facts only.
func TestReplReadsOneModel(t *testing.T) {
	eng, err := ldl1.New(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	in := `:prepare anc(a, W)
assert par(b, c).
?- anc(a, W).
:exec
:explain anc(a, c)
:assert par(c, d).
anc(a, W)
:exec
:prepare anc(b, W)
:exec c
:quit
`
	want := `LDL1 interactive — :help for commands, :quit to leave (Ctrl-C interrupts a running query)
?- prepared: anc(a, W) (1 parameter(s); run with :exec)
?- model: +3 -0 facts
?- W = b
W = c
?- W = b
W = c
?- % :explain covers the loaded facts only, not assert/retract
error: ldl1: anc(a, c) is not in the model
?- model: +4 -0 facts
?- W = b
W = c
W = d
?- W = b
W = c
W = d
?- prepared: anc(b, W) (1 parameter(s); run with :exec)
?- W = d
?- `
	if got := runRepl(t, eng, in); got != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, want)
	}
}
