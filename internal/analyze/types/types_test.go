package types

import (
	"strconv"
	"strings"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/term"
)

func TestLatticeLaws(t *testing.T) {
	samples := []Type{
		{},
		Top(),
		OfKind(Int),
		OfKind(Atom),
		OfKind(Int | Atom),
		SetOf(OfKind(Int)),
		SetOf(OfKind(Atom)),
		SetOf(Top()),
		{Kinds: CompK, Shape: &Shape{Functor: "f", Args: []Type{OfKind(Int)}}},
		{Kinds: CompK, Shape: &Shape{Functor: "g", Args: []Type{OfKind(Int)}}},
		{Kinds: CompK},
	}
	for _, a := range samples {
		for _, b := range samples {
			j, m := Join(a, b), Meet(a, b)
			if !Equal(j, Join(b, a)) {
				t.Errorf("join not commutative: %s vs %s", a, b)
			}
			if !Equal(m, Meet(b, a)) {
				t.Errorf("meet not commutative: %s vs %s", a, b)
			}
			// Absorption at the bounds.
			if !Equal(Join(a, Top()), Top()) {
				t.Errorf("join with top not top: %s", a)
			}
			if !Equal(Meet(a, Type{}), Type{}) {
				t.Errorf("meet with bottom not bottom: %s", a)
			}
			if !Equal(Join(a, a), a) || !Equal(Meet(a, a), a) {
				t.Errorf("not idempotent: %s", a)
			}
		}
	}
}

func TestMeetSetElements(t *testing.T) {
	// set(int) ⊓ set(atom) is set(⊥), not ⊥: both contain {}.
	m := Meet(SetOf(OfKind(Int)), SetOf(OfKind(Atom)))
	if m.IsBottom() {
		t.Fatalf("set(int) ⊓ set(atom) must not be bottom (both contain {})")
	}
	if m.Kinds != SetK || m.Elem == nil || !m.Elem.IsBottom() {
		t.Fatalf("want set(none), got %s", m)
	}
	// Functor mismatch, by contrast, is bottom.
	f := Type{Kinds: CompK, Shape: &Shape{Functor: "f", Args: []Type{Top()}}}
	g := Type{Kinds: CompK, Shape: &Shape{Functor: "g", Args: []Type{Top()}}}
	if !Meet(f, g).IsBottom() {
		t.Fatalf("f(_) ⊓ g(_) must be bottom")
	}
}

func TestOfGround(t *testing.T) {
	cases := []struct {
		t    term.Term
		want string
	}{
		{term.Int(3), "int"},
		{term.Atom("a"), "atom"},
		{term.Str("s"), "string"},
		{term.NewSet(), "set(none)"},
		{term.NewSet(term.Int(1), term.Int(2)), "set(int)"},
		{term.NewSet(term.Int(1), term.Atom("a")), "set(int|atom)"},
		{term.NewCompound("f", term.Int(1)), "f(int)"},
	}
	for _, c := range cases {
		if got := ofGround(c.t, maxDepth).String(); got != c.want {
			t.Errorf("ofGround(%s) = %s, want %s", c.t, got, c.want)
		}
	}
}

func infer(t *testing.T, src string) *Result {
	t.Helper()
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Infer(unit.Program, nil, Options{})
}

func TestInferSignatures(t *testing.T) {
	res := infer(t, `
		parent(abe, bob).
		parent(bob, carl).
		age(abe, 70).
		anc(X, Y) <- parent(X, Y).
		anc(X, Z) <- parent(X, Y), anc(Y, Z).
		elders(X, <A>) <- age(X, A).
	`)
	want := map[string]string{
		"parent/2": "(atom, atom)",
		"anc/2":    "(atom, atom)",
		"age/2":    "(atom, int)",
		"elders/2": "(atom, set(int))",
	}
	for _, ps := range res.Env.Render() {
		key := ps.Pred + "/" + itoa(ps.Arity)
		if w, ok := want[key]; ok {
			got := "(" + strings.Join(ps.Args, ", ") + ")"
			if got != w {
				t.Errorf("%s: got %s, want %s", key, got, w)
			}
			delete(want, key)
		}
	}
	for k := range want {
		t.Errorf("missing signature for %s", k)
	}
	if len(res.Findings) != 0 {
		t.Errorf("unexpected findings: %+v", res.Findings)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestInferSetHeavyProgramClean(t *testing.T) {
	// The §5 part-cost shape: grouping, partition, member, arithmetic, and
	// set patterns together.  Must produce no findings (the committed
	// programs/partcost.ldl is the acceptance anchor for zero false
	// positives).
	res := infer(t, `
		part(p1, 10).
		assembly(a1, <P>) <- part(P, _C).
		cost(P, C) <- part(P, C).
		total({}, 0).
		total(S, C) <- partition(S, S1, S2), total(S1, C1), total(S2, C2), C = C1 + C2.
		in_it(X, S) <- member(X, S), set(S).
	`)
	for _, f := range res.Findings {
		t.Errorf("unexpected finding: %s", f.Message)
	}
}

func TestInferClashAndDead(t *testing.T) {
	res := infer(t, `
		num(1).
		lbl(a).
		boom(X) <- num(X), X = a.
		dead(X) <- num(X), lbl(X).
		chain(X) <- dead(X).
	`)
	var clashes, deads int
	for _, f := range res.Findings {
		switch f.Kind {
		case FindClash:
			clashes++
		case FindDead:
			deads++
		}
	}
	if clashes != 1 {
		t.Errorf("want 1 clash, got %d: %+v", clashes, res.Findings)
	}
	// dead/1 has an unsatisfiable body; chain/1 then reads an empty pred.
	if deads != 2 {
		t.Errorf("want 2 dead findings, got %d: %+v", deads, res.Findings)
	}
	// boom, dead, chain are all provably empty.
	for _, pred := range []string{"boom", "dead", "chain"} {
		if sig, ok := res.Env.Sig(pred, 1); ok && sig != nil {
			t.Errorf("%s/1 should have no derived signature, got %v", pred, sig)
		}
	}
}
