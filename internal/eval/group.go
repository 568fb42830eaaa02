package eval

import (
	"fmt"
	"slices"

	"ldl1/internal/ast"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Grouping (§3.2).  A grouping rule h(k̄, <Y>) <- B partitions its body
// solutions into ≡-equivalence classes by the values of the non-grouped head
// arguments k̄; each class yields one fact whose group argument is the set of
// its Y-values.  The partition lives here once, in ClassTable: evaluation
// fills it with every solution (applyGroupingRule), maintenance with the
// classes a transaction touched (Touch, then Rule.Regroup), and
// rederivation with the class of one fact (Rule.Derives).

// groupHead returns the head's group position and the head the body
// solutions are evaluated into: the grouped variable at that position, so a
// solution yields its class key and its element.  A rule without grouping
// returns -1 and its own head.
func groupHead(r ast.Rule) (int, ast.Literal, error) {
	gIdx, inner := r.Head.GroupArg()
	if gIdx < 0 {
		return -1, r.Head, nil
	}
	y, ok := inner.(term.Var)
	if !ok {
		return 0, ast.Literal{}, fmt.Errorf("eval: grouping over non-variable term <%s>; rewrite LDL1.5 heads first", inner)
	}
	head := r.Head
	head.Args = append([]term.Term(nil), r.Head.Args...)
	head.Args[gIdx] = y
	return gIdx, head, nil
}

// class is one ≡-class: the head arguments of its first solution (the slot
// at the group position is ignored) and the Y-values collected so far.
type class struct {
	args  []term.Term
	elems []term.Term
}

// ClassTable is a set of ≡-classes of one grouping rule in first-seen
// order, hashed over the non-grouped head arguments and resolved
// structurally.
type ClassTable struct {
	gIdx   int
	byHash map[uint64][]*class
	order  []*class
}

// Classes returns an empty class table of the grouping rule.
func (cr *Rule) Classes() ClassTable { return ClassTable{gIdx: cr.gIdx} }

// Touch records the class of one body solution's head arguments: the yield
// of maintenance's EnumerateDelta over a transaction's deltas.
func (t *ClassTable) Touch(args []term.Term) error {
	t.add(args)
	return nil
}

func (t *ClassTable) hash(args []term.Term) uint64 {
	h := term.HashSeed
	for i, a := range args {
		if i != t.gIdx {
			h = term.HashFold(h, a.Hash())
		}
	}
	return h
}

// add returns the class of args, opening it when args is its first member.
func (t *ClassTable) add(args []term.Term) *class {
	h := t.hash(args)
	for _, c := range t.byHash[h] {
		if term.EqualTermsExcept(c.args, args, t.gIdx) {
			return c
		}
	}
	if t.byHash == nil {
		t.byHash = map[uint64][]*class{}
	}
	c := &class{args: append([]term.Term(nil), args...)}
	t.byHash[h] = append(t.byHash[h], c)
	t.order = append(t.order, c)
	return c
}

// find returns the class of args, or nil when the table has none.
func (t *ClassTable) find(args []term.Term) *class {
	for _, c := range t.byHash[t.hash(args)] {
		if term.EqualTermsExcept(c.args, args, t.gIdx) {
			return c
		}
	}
	return nil
}

// take returns the set of the elements collected — nil for none: the class
// has no body solution and no fact — and empties the list for the next
// recompute.  The list is sorted and compacted in place, and the set adopts
// it when at most an eighth of it would be spare capacity; otherwise the set
// gets an exact copy and the class keeps its list.
func (c *class) take() *term.Set {
	if len(c.elems) == 0 {
		return nil
	}
	slices.SortFunc(c.elems, term.Compare)
	es := slices.CompactFunc(c.elems, term.Equal)
	if cap(es)-len(es) <= len(es)/8 {
		c.elems = nil
		return term.SortedSet(es)
	}
	c.elems = c.elems[:0]
	return term.SortedSet(append(make([]term.Term, 0, len(es)), es...))
}

// fact builds the head fact of class c with group set s.
func (t *ClassTable) fact(pred string, c *class, s *term.Set) *term.Fact {
	args := append([]term.Term(nil), c.args...)
	args[t.gIdx] = s
	return term.NewFact(pred, args...)
}

// recompute collects, against db, the elements of every class of t: from
// its key alone under the bound variant when every non-grouped head argument
// is a variable, otherwise by one full enumeration filtered through find.
// Either body is ordered once against db.
func (cr *Rule) recompute(x *Exec, db *store.DB, t *ClassTable) error {
	if !cr.classBindable {
		return x.heads(cr.base, nil, db, nil, x.bindings(), func(args []term.Term) error {
			if c := t.find(args); c != nil {
				c.elems = append(c.elems, args[t.gIdx])
			}
			return nil
		})
	}
	p, _, err := cr.bound.plan(x.against(db))
	if err != nil {
		return err
	}
	b := x.bindings()
classes:
	for _, c := range t.order {
		b.Undo(0)
		for i, a := range cr.Rule.Head.Args {
			v, ok := a.(term.Var) // all but the group argument
			if !ok {
				continue
			}
			if ex, bound := b.Lookup(v); !bound {
				b.Bind(v, c.args[i])
			} else if !term.Equal(ex, c.args[i]) {
				continue classes // a repeated variable meets two values: no solution has this key
			}
		}
		err := x.heads(cr.bound, p, db, nil, b, func(args []term.Term) error {
			c.elems = append(c.elems, args[t.gIdx])
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Regroup maintains a grouping rule across one transaction: it takes the
// old set of every class t has been touched with, recomputes the class
// against cur, and returns the old facts of the classes that changed
// (deletion seeds), their new facts (insertion seeds) and the number of
// classes regrouped.  When own holds, the rule is the only source of its
// predicate's facts in old, which by §3.2 holds one fact per class with a
// body solution: the old set is read from that fact.  Otherwise it is
// recomputed against old.
func (cr *Rule) Regroup(x *Exec, t *ClassTable, old, cur *store.DB, own bool) (del, ins []*term.Fact, n int, err error) {
	if len(t.order) == 0 {
		return nil, nil, 0, nil
	}
	olds := make([]*term.Set, len(t.order))
	if own {
		cr.stored(old, t, olds)
	} else {
		if err := cr.recompute(x, old, t); err != nil {
			return nil, nil, 0, err
		}
		for i, c := range t.order {
			olds[i] = c.take()
		}
	}
	if err := cr.recompute(x, cur, t); err != nil {
		return nil, nil, 0, err
	}
	pred := cr.Rule.Head.Pred
	for i, c := range t.order {
		os, ns := olds[i], c.take()
		if os == nil && ns == nil || os != nil && ns != nil && term.Equal(os, ns) {
			continue
		}
		if os != nil {
			del = append(del, t.fact(pred, c, os))
		}
		if ns != nil {
			ins = append(ins, t.fact(pred, c, ns))
		}
	}
	return del, ins, len(t.order), nil
}

// stored sets sets[i] to the group set of the fact of class t.order[i] in
// db, probed on the non-grouped columns, or leaves it nil when db has none.
func (cr *Rule) stored(db *store.DB, t *ClassTable, sets []*term.Set) {
	rel := db.RelOrNil(cr.Rule.Head.Pred)
	if rel == nil {
		return
	}
	cols := make([]int, 0, len(cr.Rule.Head.Args)-1)
	for i := range cr.Rule.Head.Args {
		if i != t.gIdx {
			cols = append(cols, i)
		}
	}
	vals := make([]term.Term, len(cols))
	for i, c := range t.order {
		for j, col := range cols {
			vals[j] = c.args[col]
		}
		rel.ScanCols(cols, vals, func(run []*term.Fact) error {
			sets[i], _ = run[0].Args[t.gIdx].(*term.Set)
			return nil
		})
	}
}

// applyGroupingRule evaluates a grouping rule once against the layer input
// (its body lies strictly below, Lemma 3.2.3): the body runs as for the
// groupless rule r⁻ under a cost-planned order, every solution joins its
// class, and each class contributes one head fact.
func (ev *evaluation) applyGroupingRule(v *Variant) error {
	p, err := ev.plan(v)
	if err != nil {
		return err
	}
	r, x := v.rule, &ev.x
	gIdx, _ := r.Head.GroupArg()
	t := ClassTable{gIdx: gIdx}
	// Under provenance, the distinct premises of each class's solutions.
	type premises struct {
		facts []*term.Fact
		seen  *store.FactSet
	}
	var prems map[*class]*premises
	if x.prov != nil {
		prems = map[*class]*premises{}
	}
	err = x.heads(v, p, ev.db, nil, x.bindings(), func(args []term.Term) error {
		c := t.add(args)
		c.elems = append(c.elems, args[gIdx])
		if x.prov != nil {
			p := prems[c]
			if p == nil {
				p = &premises{seen: store.NewFactSet()}
				prems[c] = p
			}
			for _, f := range x.trail {
				if p.seen.Add(f) {
					p.facts = append(p.facts, f)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range t.order {
		f := t.fact(r.Head.Pred, c, c.take())
		ok, err := ev.Accept(f)
		if err != nil {
			return err
		}
		if ok && x.prov != nil {
			x.prov.record(&Derivation{Fact: f, Rule: r.String(), Premises: prems[c].facts, Grouped: true})
		}
	}
	return nil
}
