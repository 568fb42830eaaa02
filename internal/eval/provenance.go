package eval

import (
	"fmt"
	"strings"

	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Derivation records how a fact entered the model: the rule instance that
// produced it and the body facts it matched (its premises).  EDB facts and
// program facts have no rule.
type Derivation struct {
	Fact     *term.Fact
	Rule     string // rule text; "" for extensional facts
	Premises []*term.Fact
	// Grouped is set for facts produced by a grouping rule; Premises
	// then holds one representative body match per collected element.
	Grouped bool
}

// Provenance collects one Derivation per derived fact when attached to
// Options.  Derivations are bucketed by the fact's structural hash;
// collisions are resolved by term.EqualFacts.
type Provenance struct {
	m map[uint64][]*Derivation
	n int
}

// NewProvenance creates an empty provenance store.
func NewProvenance() *Provenance {
	return &Provenance{m: map[uint64][]*Derivation{}}
}

func (p *Provenance) lookup(f *term.Fact) *Derivation {
	for _, d := range p.m[f.Hash()] {
		if term.EqualFacts(d.Fact, f) {
			return d
		}
	}
	return nil
}

func (p *Provenance) record(d *Derivation) {
	if p.lookup(d.Fact) != nil {
		return
	}
	h := d.Fact.Hash()
	p.m[h] = append(p.m[h], d)
	p.n++
}

// Len returns the number of recorded derivations.
func (p *Provenance) Len() int { return p.n }

// Explain renders a proof tree for the fact: the rule that derived it and,
// recursively, the derivations of its premises.  Extensional facts are
// leaves.  Cycles cannot occur (each fact's first derivation is recorded,
// and premises were present before the conclusion).
func (p *Provenance) Explain(f *term.Fact) string {
	var b strings.Builder
	seen := store.NewFactSet()
	p.explain(&b, f, 0, seen)
	return strings.TrimRight(b.String(), "\n")
}

func (p *Provenance) explain(b *strings.Builder, f *term.Fact, depth int, seen *store.FactSet) {
	indent := strings.Repeat("  ", depth)
	d := p.lookup(f)
	if d == nil {
		fmt.Fprintf(b, "%s%s.   [given]\n", indent, f)
		return
	}
	if !seen.Add(f) {
		fmt.Fprintf(b, "%s%s.   [shown above]\n", indent, f)
		return
	}
	switch {
	case d.Rule == "":
		fmt.Fprintf(b, "%s%s.   [fact]\n", indent, f)
	case d.Grouped:
		fmt.Fprintf(b, "%s%s   [grouped by %s]\n", indent, f, d.Rule)
	default:
		fmt.Fprintf(b, "%s%s   [by %s]\n", indent, f, d.Rule)
	}
	for _, prem := range d.Premises {
		p.explain(b, prem, depth+1, seen)
	}
}
