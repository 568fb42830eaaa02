// Package lps implements the fragment of Kuper's LPS used in §5 of the
// paper: logic rules whose bodies carry a prefix of bounded universal
// quantifiers over finite sets,
//
//	head <- R_1, ..., R_k, (∀x_1 ∈ X_1) ... (∀x_n ∈ X_n) [B_1, ..., B_m]
//
// where the R_i are ordinary literals (they bind the set variables X_j —
// our executable reading of Kuper's set-typed variables), and the B_i must
// hold for every combination of elements x_j ∈ X_j.
//
// The package provides a direct evaluator (used as the §5 baseline) and the
// Theorem 3 translation into LDL1, including the empty-set case the paper
// leaves as "a straight-forward task".
package lps

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Quant is one bounded universal quantifier (∀ Elem ∈ Set).
type Quant struct {
	Elem term.Var
	Set  term.Var
}

// Rule is an LPS rule.
type Rule struct {
	Head    ast.Literal
	Regular []ast.Literal // ordinary body literals; bind the set variables
	Quants  []Quant
	Body    []ast.Literal // the quantified conjunction [B_1, ..., B_m]
}

func (r Rule) String() string {
	s := r.Head.String() + " <- "
	for i, l := range r.Regular {
		if i > 0 {
			s += ", "
		}
		s += l.String()
	}
	for _, q := range r.Quants {
		s += fmt.Sprintf(" forall %s in %s", q.Elem, q.Set)
	}
	if len(r.Body) > 0 {
		s += " : "
		for i, l := range r.Body {
			if i > 0 {
				s += ", "
			}
			s += l.String()
		}
	}
	return s + "."
}

// Program is an LPS program: rules plus ground facts.
type Program struct {
	Rules []Rule
	Facts []*term.Fact
}

// Eval computes the minimal model of the LPS program over edb by naive
// fixpoint: quantified bodies are checked by enumerating every combination
// of elements of the (finite) bound sets.
func Eval(p *Program, edb *store.DB) (*store.DB, error) {
	db := edb.Clone()
	for _, f := range p.Facts {
		db.Insert(f)
	}
	for {
		changed := false
		for _, r := range p.Rules {
			n, err := applyRule(r, db)
			if err != nil {
				return nil, err
			}
			if n > 0 {
				changed = true
			}
		}
		if !changed {
			return db, nil
		}
	}
}

func applyRule(r Rule, db *store.DB) (int, error) {
	rows, err := eval.Solve(r.Regular, db)
	if err != nil {
		return 0, err
	}
	cols := eval.Columns(r.Regular)
	added := 0
	for _, row := range rows {
		b := unify.NewBindings()
		for i, t := range row {
			if t != nil {
				b.Bind(cols[i], t)
			}
		}
		ok, err := forallHolds(r.Quants, r.Body, b, db)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		f, err := unify.ApplyLit(r.Head, b)
		if err != nil {
			continue // head outside U: not derivable
		}
		if db.Insert(f) {
			added++
		}
	}
	return added, nil
}

// forallHolds checks (∀x̄ ∈ X̄)[body] under the given bindings, with the
// set variables already bound to finite sets.
func forallHolds(quants []Quant, body []ast.Literal, b *unify.Bindings, db *store.DB) (bool, error) {
	if len(quants) == 0 {
		if len(body) == 0 {
			return true, nil
		}
		// Check the conjunction with all variables bound.
		sols, err := eval.Solve(ground(body, b), db)
		if err != nil {
			return false, err
		}
		return len(sols) > 0, nil
	}
	q := quants[0]
	sv, okBound := b.Lookup(q.Set)
	if !okBound {
		return false, fmt.Errorf("lps: set variable %s is unbound; regular literals must bind it", q.Set)
	}
	set, isSet := sv.(*term.Set)
	if !isSet {
		return false, fmt.Errorf("lps: variable %s is bound to non-set %s", q.Set, sv)
	}
	for _, e := range set.Elems() {
		mark := b.Mark()
		b.Bind(q.Elem, e)
		holds, err := forallHolds(quants[1:], body, b, db)
		b.Undo(mark)
		if err != nil {
			return false, err
		}
		if !holds {
			return false, nil
		}
	}
	// Empty set (or all combinations pass): the ∀ holds vacuously.
	return true, nil
}

func ground(body []ast.Literal, b *unify.Bindings) []ast.Literal {
	out := make([]ast.Literal, len(body))
	for i, l := range body {
		args := make([]term.Term, len(l.Args))
		for j, a := range l.Args {
			args[j] = unify.ApplyPartial(a, b)
		}
		out[i] = ast.Literal{Negated: l.Negated, Pred: l.Pred, Args: args}
	}
	return out
}
