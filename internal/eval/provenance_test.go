package eval

import (
	"strings"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Of returns the derivation of a fact, if one was recorded.
func (p *Provenance) Of(f *term.Fact) (*Derivation, bool) {
	d := p.lookup(f)
	return d, d != nil
}

func TestProvenanceChain(t *testing.T) {
	p := parser.MustParseProgram(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(a, b). parent(b, c). parent(c, d).
	`)
	prov := NewProvenance()
	db, err := Eval(p, store.NewDB(), Options{Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	if prov.Len() != db.Len() {
		t.Errorf("provenance covers %d of %d facts", prov.Len(), db.Len())
	}
	f := term.NewFact("ancestor", term.Atom("a"), term.Atom("d"))
	d, ok := prov.Of(f)
	if !ok {
		t.Fatal("no derivation for ancestor(a, d)")
	}
	if len(d.Premises) != 2 {
		t.Fatalf("premises = %v", d.Premises)
	}
	out := prov.Explain(f)
	for _, want := range []string{
		"ancestor(a, d)",
		"[fact]",
		"parent(a, b)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
	// Leaves are marked as facts; the tree nests by indentation.
	if !strings.Contains(out, "  parent(") {
		t.Errorf("expected indented premises:\n%s", out)
	}
	// Premises of every derivation precede the conclusion in the model.
	for _, fact := range db.Facts() {
		d, ok := prov.Of(fact)
		if !ok {
			t.Fatalf("missing derivation for %s", fact)
		}
		for _, prem := range d.Premises {
			if !db.Contains(prem) {
				t.Errorf("premise %s of %s not in model", prem, fact)
			}
		}
	}
}

func TestProvenanceGrouping(t *testing.T) {
	p := parser.MustParseProgram(`
		sp(s1, p1). sp(s1, p2). sp(s2, p3).
		supplies(S, <P>) <- sp(S, P).
	`)
	prov := NewProvenance()
	if _, err := Eval(p, store.NewDB(), Options{Provenance: prov}); err != nil {
		t.Fatal(err)
	}
	f := term.NewFact("supplies", term.Atom("s1"),
		term.NewSet(term.Atom("p1"), term.Atom("p2")))
	d, ok := prov.Of(f)
	if !ok {
		t.Fatal("no derivation for grouped fact")
	}
	if !d.Grouped {
		t.Error("derivation should be marked grouped")
	}
	if len(d.Premises) != 2 {
		t.Errorf("grouped premises = %v", d.Premises)
	}
	out := prov.Explain(f)
	if !strings.Contains(out, "grouped by") {
		t.Errorf("explanation = %s", out)
	}
}

func TestProvenanceUnknownFact(t *testing.T) {
	prov := NewProvenance()
	f := term.NewFact("mystery", term.Int(1))
	if _, ok := prov.Of(f); ok {
		t.Fatal("unknown fact should have no derivation")
	}
	if out := prov.Explain(f); !strings.Contains(out, "[given]") {
		t.Errorf("unknown fact explanation = %q", out)
	}
}
