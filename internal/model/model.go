// Package model implements the model theory of §2.2–§2.4: checking whether
// an interpretation (a finite set of U-facts) is a model of a program,
// including the special truth definition for grouping rules, and the
// dominance-based comparison of models used for the paper's non-standard
// minimality.
//
// Interpretations here are finite; the paper's definition quantifies over
// the infinite universe U, but for the finite programs and databases of the
// examples every relevant binding draws from the active domain, which is
// what Check enumerates.  Built-in predicates are interpreted directly
// rather than materialized (the paper's M' convention).
package model

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/builtin"
	"ldl1/internal/layering"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Violation describes why an interpretation fails to be a model: a rule
// instance whose body holds but whose required head fact is absent.
type Violation struct {
	Rule    ast.Rule
	Missing *term.Fact
}

func (v *Violation) Error() string {
	return fmt.Sprintf("rule %q violated: body satisfied but %s is not in the interpretation", v.Rule.String(), v.Missing)
}

// IsModel reports whether the interpretation m is a model of p (§2.2).
func IsModel(p *ast.Program, m *store.DB) (bool, error) {
	v, err := Check(p, m)
	if err != nil {
		return false, err
	}
	return v == nil, nil
}

// Check returns the first rule violation, or nil if m is a model of p.
func Check(p *ast.Program, m *store.DB) (*Violation, error) {
	for _, r := range p.Rules {
		viol, err := checkRule(r, m)
		if err != nil {
			return nil, err
		}
		if viol != nil {
			return viol, nil
		}
	}
	return nil, nil
}

func checkRule(r ast.Rule, m *store.DB) (*Violation, error) {
	if r.IsFact() {
		f, err := unify.ApplyLit(r.Head, unify.NewBindings())
		if err != nil {
			return nil, err
		}
		if !m.Contains(f) {
			return &Violation{Rule: r, Missing: f}, nil
		}
		return nil, nil
	}
	if r.IsGroupingRule() {
		return checkGroupingRule(r, m)
	}
	// Plain rule: for every binding satisfying the body, the head must be
	// present.
	var viol *Violation
	err := forEachBodySolution(r, m, func(b *unify.Bindings) error {
		f, err := unify.ApplyLit(r.Head, b)
		if err != nil {
			return nil // head outside U: instance imposes no requirement
		}
		if !m.Contains(f) {
			viol = &Violation{Rule: r, Missing: f}
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return nil, err
	}
	return viol, nil
}

var errStop = fmt.Errorf("stop")

// checkGroupingRule implements the §2.2 truth definition for
// p(t1,...,tn,<Y>) <- body: for each ≡-class of bindings (same
// interpretation of the non-grouped head terms), the fact whose grouped
// argument is the set of all Y values of the class must be present —
// unless that set is empty, in which case the formula holds vacuously.
func checkGroupingRule(r ast.Rule, m *store.DB) (*Violation, error) {
	gIdx, inner := r.Head.GroupArg()
	yVar, ok := inner.(term.Var)
	if !ok {
		return nil, fmt.Errorf("model: grouping over non-variable <%s>; rewrite LDL1.5 heads first", inner)
	}
	type class struct {
		args  []term.Term
		elems []term.Term
	}
	// ≡-classes keyed by the combined hash of the non-grouped head values;
	// the bucket slice resolves hash collisions structurally.
	classes := map[uint64][]*class{}
	var order []*class
	err := forEachBodySolution(r, m, func(b *unify.Bindings) error {
		args := make([]term.Term, len(r.Head.Args))
		h := term.HashSeed
		for i, a := range r.Head.Args {
			if i == gIdx {
				continue
			}
			v, err := unify.Apply(a, b)
			if err != nil {
				return nil
			}
			args[i] = v
			h = term.HashFold(h, v.Hash())
		}
		y, err := unify.Apply(yVar, b)
		if err != nil {
			return nil
		}
		var c *class
		for _, cand := range classes[h] {
			if term.EqualTermsExcept(cand.args, args, gIdx) {
				c = cand
				break
			}
		}
		if c == nil {
			c = &class{args: args}
			classes[h] = append(classes[h], c)
			order = append(order, c)
		}
		c.elems = append(c.elems, y)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range order {
		args := make([]term.Term, len(c.args))
		copy(args, c.args)
		args[gIdx] = term.NewSet(c.elems...)
		f := term.NewFact(r.Head.Pred, args...)
		if !m.Contains(f) {
			return &Violation{Rule: r, Missing: f}, nil
		}
	}
	return nil, nil
}

// forEachBodySolution enumerates bindings that satisfy the rule body in m.
// Negated literals hold when the fact is absent from m; built-ins are
// interpreted directly.
func forEachBodySolution(r ast.Rule, m *store.DB, fn func(*unify.Bindings) error) error {
	order, err := planBody(r)
	if err != nil {
		return err
	}
	b := unify.NewBindings()
	return join(r.Body, order, 0, m, b, fn)
}

// planBody orders literals so built-ins and negations come after their
// variables are bound; positives keep source order.
func planBody(r ast.Rule) ([]int, error) {
	n := len(r.Body)
	used := make([]bool, n)
	bound := map[term.Var]bool{}
	isBound := func(v term.Var) bool { return bound[v] }
	var order []int
	for len(order) < n {
		chosen := -1
		for i := 0; i < n && chosen < 0; i++ {
			if used[i] {
				continue
			}
			l := r.Body[i]
			if layering.IsBuiltin(l.Pred) || l.Negated {
				ready := true
				if layering.IsBuiltin(l.Pred) {
					ready = builtin.Ready(l, isBound)
				} else {
					for _, v := range l.Vars() {
						if !bound[v] {
							ready = false
							break
						}
					}
				}
				if ready {
					chosen = i
				}
				continue
			}
		}
		if chosen < 0 {
			for i := 0; i < n; i++ {
				if !used[i] && !r.Body[i].Negated && !layering.IsBuiltin(r.Body[i].Pred) {
					chosen = i
					break
				}
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("model: cannot order body of %q", r.String())
		}
		used[chosen] = true
		order = append(order, chosen)
		for _, v := range r.Body[chosen].Vars() {
			bound[v] = true
		}
	}
	return order, nil
}

func join(body []ast.Literal, order []int, step int, m *store.DB, b *unify.Bindings, fn func(*unify.Bindings) error) error {
	if step == len(order) {
		return fn(b)
	}
	l := body[order[step]]
	cont := func() error { return join(body, order, step+1, m, b, fn) }
	if layering.IsBuiltin(l.Pred) {
		return builtin.Eval(l, b, cont)
	}
	if l.Negated {
		f, err := unify.ApplyLit(l.Positive(), b)
		if err != nil {
			return cont() // outside U ⇒ predicate false ⇒ negation holds
		}
		if m.Contains(f) {
			return nil
		}
		return cont()
	}
	rel := m.RelOrNil(l.Pred)
	if rel == nil {
		return nil
	}
	for _, f := range rel.All() {
		mark := b.Mark()
		if unify.MatchFact(l, f, b) {
			if err := cont(); err != nil {
				b.Undo(mark)
				return err
			}
			b.Undo(mark)
		}
	}
	return nil
}

// DiffDominated reports (M' − M) ≤ (M − M') in the §2.4 sense: every fact
// of M'−M is dominated by some fact of M−M'.
func DiffDominated(mPrime, m *store.DB) bool {
	var diffPrime, diff []*term.Fact
	for _, f := range mPrime.Facts() {
		if !m.Contains(f) {
			diffPrime = append(diffPrime, f)
		}
	}
	for _, f := range m.Facts() {
		if !mPrime.Contains(f) {
			diff = append(diff, f)
		}
	}
	for _, e := range diffPrime {
		dominated := false
		for _, ep := range diff {
			if term.Dominated(e, ep) {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// StrictlyBelow reports that mPrime witnesses the non-minimality of m:
// mPrime is different from m and (mPrime − m) ≤ (m − mPrime).  A model m is
// minimal iff no model mPrime satisfies this (§2.4).
func StrictlyBelow(mPrime, m *store.DB) bool {
	return !mPrime.Equal(m) && DiffDominated(mPrime, m)
}
