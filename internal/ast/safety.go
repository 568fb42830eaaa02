package ast

import "ldl1/internal/term"

// This file implements the safety (range-restriction) analysis of §2.2/§7:
// which variables of a rule are *limited* — guaranteed bound to an element
// of U whenever the rule fires bottom-up.  The analysis is shared by the
// engine's well-formedness gate (CheckWellFormed) and by the static
// analyzer (internal/analyze), which adds positions and diagnostic codes.
//
// A variable is limited iff the fixpoint of the following rules reaches it:
//
//   - it occurs at a *bindable* position of a positive database literal:
//     matching a stored fact binds variables under uninterpreted functors
//     and under §4.1 body group patterns <t> (which the LDL1.5 rewrite
//     turns into member/2 element binding), but NOT under interpreted
//     functors — an enumerated set pattern {X}, scons, or arithmetic can
//     only be evaluated forward once its variables are bound, never
//     inverted against a matched value (unify.Match compares exactly these
//     by value);
//   - a generator mode of a built-in can produce it: X = t with t's
//     variables limited binds X (so "vars bound only via = to a ground
//     term" are safe); member(t, S) with S limited binds t; union and
//     partition run in either direction.
//
// The old check simply collected every variable of every positive body
// literal, which both over-accepted ({X} patterns that can never bind X)
// and conflated built-in tests with generators (X < Y "binding" X).

// IsBuiltinPred reports whether pred is one of the engine's reserved
// built-in predicates: the one definition of the set, which layering and
// builtin answer from.  A switch, not a map: the evaluator asks per join
// step.
func IsBuiltinPred(pred string) bool {
	switch pred {
	case "member", "union", "partition", "set", "=", "/=", "<", "<=", ">", ">=", "true", "false":
		return true
	}
	return false
}

// bindableVars adds to dst the variables of t that matching t against a
// ground value can bind: variables themselves, variables under
// uninterpreted compounds, and variables under §4.1 group patterns.
// Variables under interpreted functors ($set, scons, arithmetic) are
// skipped — those terms are evaluated forward, never decomposed.
func bindableVars(t term.Term, dst map[term.Var]bool) {
	switch t := t.(type) {
	case term.Var:
		dst[t] = true
	case *term.Group:
		bindableVars(t.Inner, dst)
	case *term.Compound:
		if term.IsInterpretedFunctor(t.Functor) {
			return
		}
		for _, a := range t.Args {
			bindableVars(a, dst)
		}
	}
}

// Binds reports whether matching the terms against ground values together
// (unify.MatchFact matches a literal's arguments as one pattern) leaves none
// of their variables unbound: each is bound already or occurs at a bindable
// position of one of the terms.  With the safety analysis below it is the
// one statement of which positions bind a variable: the join planner
// (internal/eval) and the built-in modes (builtin.Ready) ask it.  Only a
// term with an interpreted functor inside can fail, so the common case
// allocates nothing.
func Binds(bound func(term.Var) bool, ts ...term.Term) bool {
	var bindable map[term.Var]bool
	for _, t := range ts {
		c, ok := t.(*term.Compound)
		if !ok || c.Pure() {
			continue
		}
		if bindable == nil {
			bindable = map[term.Var]bool{}
			for _, u := range ts {
				bindableVars(u, bindable)
			}
		}
		for _, v := range term.VarsOf(c) {
			if !bindable[v] && !bound(v) {
				return false
			}
		}
	}
	return true
}

// allLimited reports whether every variable of t is in limited (then
// binding application evaluates t to a ground element of U).
func allLimited(t term.Term, limited map[term.Var]bool) bool {
	for _, v := range term.VarsOf(t) {
		if !limited[v] {
			return false
		}
	}
	return true
}

// markBindable adds t's bindable variables to limited, reporting whether
// anything new was added.
func markBindable(t term.Term, limited map[term.Var]bool) bool {
	fresh := map[term.Var]bool{}
	bindableVars(t, fresh)
	changed := false
	for v := range fresh {
		if !limited[v] {
			limited[v] = true
			changed = true
		}
	}
	return changed
}

// Limited computes the limited variables of the rule's body, seeded with
// preBound (variables already bound from outside, e.g. by a magic-sets
// binding pattern; nil is fine).
func Limited(r Rule, preBound map[term.Var]bool) map[term.Var]bool {
	limited := map[term.Var]bool{}
	for v := range preBound {
		limited[v] = true
	}
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Negated {
				continue
			}
			if !IsBuiltinPred(l.Pred) {
				for _, a := range l.Args {
					if markBindable(a, limited) {
						changed = true
					}
				}
				continue
			}
			switch l.Pred {
			case "=":
				if len(l.Args) != 2 {
					continue
				}
				if allLimited(l.Args[0], limited) && markBindable(l.Args[1], limited) {
					changed = true
				}
				if allLimited(l.Args[1], limited) && markBindable(l.Args[0], limited) {
					changed = true
				}
			case "member":
				if len(l.Args) == 2 && allLimited(l.Args[1], limited) {
					if markBindable(l.Args[0], limited) {
						changed = true
					}
				}
			case "union":
				if len(l.Args) != 3 {
					continue
				}
				if allLimited(l.Args[0], limited) && allLimited(l.Args[1], limited) {
					if markBindable(l.Args[2], limited) {
						changed = true
					}
				}
				if allLimited(l.Args[2], limited) {
					if markBindable(l.Args[0], limited) {
						changed = true
					}
					if markBindable(l.Args[1], limited) {
						changed = true
					}
				}
			case "partition":
				if len(l.Args) != 3 {
					continue
				}
				if allLimited(l.Args[0], limited) {
					if markBindable(l.Args[1], limited) {
						changed = true
					}
					if markBindable(l.Args[2], limited) {
						changed = true
					}
				}
				if allLimited(l.Args[1], limited) && allLimited(l.Args[2], limited) {
					if markBindable(l.Args[0], limited) {
						changed = true
					}
				}
			}
		}
	}
	return limited
}

// UnsafeKind classifies a safety violation.
type UnsafeKind uint8

const (
	// UnsafeHead: a head variable is not limited by the body.
	UnsafeHead UnsafeKind = iota
	// UnsafeGrouped: a grouped head variable <X> is not limited.
	UnsafeGrouped
	// UnsafeNegated: a variable of a negated body literal is not limited.
	UnsafeNegated
	// UnsafeFact: a fact (empty body) contains variables.
	UnsafeFact
)

// UnsafeVar is one safety violation of a rule.
type UnsafeVar struct {
	Var  term.Var
	Kind UnsafeKind
	// Lit is the literal the violation is anchored to: the head for
	// UnsafeHead/UnsafeGrouped/UnsafeFact, the negated body literal for
	// UnsafeNegated.
	Lit Literal
}

// UnsafeVars returns the rule's safety violations in deterministic order
// (head variables first, then negated-literal variables in body order).
// An empty result means the rule is safe (§2.2, §7).
func UnsafeVars(r Rule) []UnsafeVar {
	var out []UnsafeVar
	if r.IsFact() {
		for _, v := range r.Head.Vars() {
			out = append(out, UnsafeVar{Var: v, Kind: UnsafeFact, Lit: r.Head})
		}
		return out
	}
	limited := Limited(r, nil)
	// Grouped head variables, so UnsafeGrouped takes precedence over
	// plain UnsafeHead for the same variable.
	grouped := map[term.Var]bool{}
	for _, a := range r.Head.Args {
		if g, ok := a.(*term.Group); ok {
			for _, v := range term.VarsOf(g.Inner) {
				grouped[v] = true
			}
		}
	}
	for _, v := range r.Head.Vars() {
		if limited[v] {
			continue
		}
		kind := UnsafeHead
		if grouped[v] {
			kind = UnsafeGrouped
		}
		out = append(out, UnsafeVar{Var: v, Kind: kind, Lit: r.Head})
	}
	for _, l := range r.Body {
		if !l.Negated {
			continue
		}
		for _, v := range l.Vars() {
			if !limited[v] {
				out = append(out, UnsafeVar{Var: v, Kind: UnsafeNegated, Lit: l})
			}
		}
	}
	return out
}
