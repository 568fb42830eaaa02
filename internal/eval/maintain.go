package eval

import (
	"errors"
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Maintenance evaluation support (internal/incr): a rule is compiled once
// per materialized program into the family of variants incremental
// maintenance needs — one delta variant per body literal (insertions and the
// DRed deletion overestimate bind one literal to a delta relation), a
// head-bound variant for rederivation (is this fact still derivable?), and,
// for grouping rules, a class-bound one that recomputes a single
// ≡-equivalence class (group.go).  The plans are static: compiled once,
// valid for every transaction.  Every enumeration runs on an Exec, so under
// the budget of the transaction's Driver, and only reads the database.

// errStop aborts an enumeration early (first-derivation checks).
var errStop = errors.New("eval: stop enumeration")

// CompiledRule is a rule compiled for incremental maintenance.
type CompiledRule struct {
	Rule ast.Rule

	base *Variant
	// delta[j] executes the body with literal j first, bound to a delta
	// relation.  For a negated literal j it runs the positive variant of
	// the body: maintenance enumerates the facts whose appearance killed —
	// or whose disappearance enabled — the negated condition.  nil for
	// built-in literals (they never change).
	delta []*Variant

	// bound is planned with the head variables pre-bound: the rederivation
	// plan for simple rules, the per-class recompute plan for grouping
	// rules (non-grouped head variables only).
	bound *Variant

	// headMatchable reports that every head argument is an invertible
	// pattern, so Derives can seed bindings by matching the head against
	// the candidate fact.  False (e.g. arithmetic in the head) falls back
	// to full enumeration with head comparison.
	headMatchable bool

	// Grouping: gIdx is the head's group-argument position (-1 for simple
	// rules); enumerations yield the grouped variable's value — the ≡-class
	// element, not a set — at that position.  classBindable reports that
	// every non-grouped head argument is a plain variable, so one class can
	// be recomputed from its key bindings alone.
	gIdx          int
	classBindable bool
}

// CompileRule compiles one non-fact rule for maintenance.
func CompileRule(r ast.Rule) (*CompiledRule, error) {
	cr := &CompiledRule{Rule: r}
	gIdx, head, err := groupHead(r)
	if err != nil {
		return nil, err
	}
	cr.gIdx = gIdx
	if gIdx >= 0 {
		cr.classBindable = true
		for i, a := range r.Head.Args {
			if _, ok := a.(term.Var); i != gIdx && !ok {
				cr.classBindable = false
			}
		}
	} else {
		cr.headMatchable = true
		for _, a := range r.Head.Args {
			if !matchablePattern(a) {
				cr.headMatchable = false
				break
			}
		}
	}
	variant := func(body []ast.Literal, dLit int, pre map[term.Var]bool) (*Variant, error) {
		v := newVariant(r, head, body, dLit, pre)
		var err error
		v.fixed, _, err = v.plan(nil)
		return v, err
	}
	if cr.base, err = variant(r.Body, -1, nil); err != nil {
		return nil, err
	}
	cr.delta = make([]*Variant, len(r.Body))
	for j, l := range r.Body {
		if layering.IsBuiltin(l.Pred) {
			continue
		}
		body := r.Body
		if l.Negated {
			body = append([]ast.Literal(nil), r.Body...)
			body[j] = l.Positive()
		}
		if cr.delta[j], err = variant(body, j, nil); err != nil {
			return nil, fmt.Errorf("delta plan for literal %d of %q: %w", j, r.String(), err)
		}
	}

	// The bound plan pre-binds the head variables (of the non-grouped
	// positions, for a grouping rule).
	pre := map[term.Var]bool{}
	for i, a := range r.Head.Args {
		if i == cr.gIdx {
			continue
		}
		for _, v := range term.VarsOf(a) {
			pre[v] = true
		}
	}
	if cr.bound, err = variant(r.Body, -1, pre); err != nil {
		return nil, fmt.Errorf("bound plan for %q: %w", r.String(), err)
	}
	return cr, nil
}

// matchablePattern reports whether unify.MatchFact can invert the pattern
// against a ground value: variables, constants, sets, ground terms, and
// free (uninterpreted) compounds over matchable arguments.  Non-ground
// interpreted functors (arithmetic, scons) cannot be inverted.
func matchablePattern(t term.Term) bool {
	switch t := t.(type) {
	case term.Var, term.Atom, term.Int, term.Str, *term.Set:
		return true
	case *term.Compound:
		if term.IsGround(t) {
			return true
		}
		if term.IsInterpretedFunctor(t.Functor) {
			return false
		}
		for _, a := range t.Args {
			if !matchablePattern(a) {
				return false
			}
		}
		return true
	}
	return false
}

// HasDelta reports whether body literal j can carry a delta (false for
// built-ins, which never change).
func (cr *CompiledRule) HasDelta(j int) bool {
	return j >= 0 && j < len(cr.delta) && cr.delta[j] != nil
}

// Delta returns the variant whose delta literal is body literal j; nil
// unless HasDelta(j).
func (cr *CompiledRule) Delta(j int) *Variant { return cr.delta[j] }

// EnumerateDelta enumerates the body solutions of the rule against db, with
// body literal j (HasDelta(j)) restricted to the facts of delta, and yields
// the head arguments of each.  For a negated literal j the positive variant
// is enumerated: the solutions gained or lost as the negated predicate
// shrank or grew.  args is valid only for the duration of the call.
func (cr *CompiledRule) EnumerateDelta(x *Exec, db *store.DB, j int, delta *store.Relation, yield func(args []term.Term) error) error {
	return x.heads(cr.delta[j], cr.delta[j].fixed, db, delta, unify.NewBindings(), yield)
}

// Derives reports whether the rule derives f from db in one step: the
// rederivation test of delete-and-rederive.
func (cr *CompiledRule) Derives(x *Exec, db *store.DB, f *term.Fact) (bool, error) {
	h := cr.Rule.Head
	if f.Pred != h.Pred || len(f.Args) != len(h.Args) {
		return false, nil
	}
	if cr.gIdx >= 0 {
		// f's class, recomputed against db, must yield exactly f's set.
		t := cr.Classes()
		c := t.add(f.Args)
		if err := cr.recompute(x, db, &t); err != nil {
			return false, err
		}
		s := c.take()
		return s != nil && term.Equal(s, f.Args[cr.gIdx]), nil
	}
	// A head the matcher can invert seeds the bindings, and the bound plan
	// runs from there; otherwise (e.g. arithmetic in the head) the whole
	// body is enumerated.  Either way the first solution whose head is f
	// answers.
	v, b := cr.base, unify.NewBindings()
	if cr.headMatchable {
		if !unify.MatchFact(h, f, b) {
			return false, nil
		}
		v = cr.bound
	}
	found := false
	err := x.heads(v, v.fixed, db, nil, b, func(args []term.Term) error {
		for i := range args {
			if !term.Equal(args[i], f.Args[i]) {
				return nil
			}
		}
		found = true
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		return false, err
	}
	return found, nil
}
