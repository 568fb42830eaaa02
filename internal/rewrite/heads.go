package rewrite

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/term"
)

// HeadSemantics selects between the paper's two readings of nested
// groupings in head terms (§4.2).
type HeadSemantics int

const (
	// StandardSemantics is translation rule (ii): an inner grouping is
	// keyed only by the variables Ȳ of the enclosing tuple term.
	StandardSemantics HeadSemantics = iota
	// AlternativeSemantics is the paper's rule (ii)': the outer head
	// variables X̄ affect the inner grouping together with Ȳ.
	AlternativeSemantics
)

// RewriteHeadsWithSemantics expands the LDL1.5 complex head terms of §4.2 —
// nested groupings and groupings over tuple terms — into plain LDL1 rules,
// under the chosen semantics, using the paper's Distribution, Grouping and
// Nesting translation rules.  Rules whose heads are already core LDL1 (at
// most one direct <Var> argument) pass through unchanged.
func RewriteHeadsWithSemantics(p *ast.Program, sem HeadSemantics) (*ast.Program, error) {
	g := newGen(p)
	out := ast.NewProgram()
	queue := append([]ast.Rule(nil), p.Rules...)
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		emitted, pending, err := rewriteHeadRule(r, g, sem)
		if err != nil {
			return nil, err
		}
		out.Add(emitted...)
		queue = append(pending, queue...)
	}
	return out, nil
}

// rewriteHeadRule applies at most one §4.2 translation step to r, returning
// rules that are final (emitted) and rules that may need further rewriting
// (pending).
func rewriteHeadRule(r ast.Rule, g *gen, sem HeadSemantics) (emitted, pending []ast.Rule, err error) {
	// Arguments containing any grouping construct; a head with two or
	// more must be distributed even if each is the core form <Var>
	// (§2.1 allows at most one grouping occurrence per head).
	var groupIdx []int
	complexCount := 0
	for i, a := range r.Head.Args {
		if term.ContainsGroup(a) {
			groupIdx = append(groupIdx, i)
		}
		if isComplexHeadArg(a) {
			complexCount++
		}
	}
	if len(groupIdx) == 0 || (len(groupIdx) == 1 && complexCount == 0) {
		return []ast.Rule{r}, nil, nil
	}

	if len(groupIdx) >= 2 {
		return distribute(r, groupIdx, g)
	}

	i := groupIdx[0]
	switch a := r.Head.Args[i].(type) {
	case *term.Group:
		switch inner := a.Inner.(type) {
		case term.Var:
			// Core grouping already; cannot happen (isComplexHeadArg
			// excludes it) but keep the rule safe.
			return []ast.Rule{r}, nil, nil
		case term.Atom, term.Int, term.Str, *term.Set:
			// <c>: group a constant — introduce Y = c.
			y := g.fresh()
			nr := cloneRuleReplacingHeadArg(r, i, term.NewGroup(y))
			nr.Body = append(nr.Body, ast.NewLit("=", y, inner))
			return nil, []ast.Rule{nr}, nil
		case *term.Compound:
			return groupingRule(r, i, inner, g, sem)
		default:
			return nil, nil, fmt.Errorf("rewrite: unsupported grouping <%s> in head of %q", inner, r.String())
		}
	case *term.Compound:
		return nestingRule(r, i, a, g)
	}
	return nil, nil, fmt.Errorf("rewrite: unexpected complex head argument %s in %q", r.Head.Args[i], r.String())
}

// isComplexHeadArg reports whether a head argument needs §4.2 expansion:
// it contains a grouping construct and is not already the core form <Var>.
func isComplexHeadArg(a term.Term) bool {
	if g, ok := a.(*term.Group); ok {
		_, isVar := g.Inner.(term.Var)
		return !isVar
	}
	return term.ContainsGroup(a)
}

func cloneRuleReplacingHeadArg(r ast.Rule, i int, t term.Term) ast.Rule {
	args := make([]term.Term, len(r.Head.Args))
	copy(args, r.Head.Args)
	args[i] = t
	body := make([]ast.Literal, len(r.Body))
	copy(body, r.Body)
	return ast.Rule{Head: ast.Literal{Pred: r.Head.Pred, Args: args}, Body: body}
}

// distribute implements translation rule (i): a head with several complex
// terms is split into one auxiliary rule per complex term, joined back on
// the head variables Z̄ that occur outside groupings.
func distribute(r ast.Rule, complexIdx []int, g *gen) (emitted, pending []ast.Rule, err error) {
	z := varsToTerms(headVarsOutsideGroups(r.Head))
	outArgs := make([]term.Term, len(r.Head.Args))
	copy(outArgs, r.Head.Args)
	var joinLits []ast.Literal
	for _, i := range complexIdx {
		pi := g.pred(r.Head.Pred + "_d")
		subHeadArgs := append(append([]term.Term{}, z...), r.Head.Args[i])
		sub := ast.Rule{
			Head: ast.Literal{Pred: pi, Args: subHeadArgs},
			Body: append([]ast.Literal{}, r.Body...),
		}
		pending = append(pending, sub)
		y := g.fresh()
		outArgs[i] = y
		joinLits = append(joinLits, ast.Literal{Pred: pi, Args: append(append([]term.Term{}, z...), y)})
	}
	final := ast.Rule{
		Head: ast.Literal{Pred: r.Head.Pred, Args: outArgs},
		Body: append(joinLits, r.Body...),
	}
	pending = append(pending, final)
	return nil, pending, nil
}

// groupingRule implements translation rule (ii): a head argument
// <g(Ȳ, term_1, ..., term_n)> where Ȳ are the variable arguments and the
// term_i are non-variable terms.
func groupingRule(r ast.Rule, i int, inner *term.Compound, g *gen, sem HeadSemantics) (emitted, pending []ast.Rule, err error) {
	var yVars []term.Term    // Ȳ in original positions
	var termArgs []term.Term // term_1..term_n
	var termPos []int
	for j, a := range inner.Args {
		if _, ok := a.(term.Var); ok {
			yVars = append(yVars, a)
		} else {
			termArgs = append(termArgs, a)
			termPos = append(termPos, j)
		}
	}
	if sem == AlternativeSemantics {
		// Rule (ii)': the outer head variables X̄ join Ȳ as grouping
		// keys, so inner groupings are computed per outer context.
		seen := map[term.Var]bool{}
		for _, y := range yVars {
			seen[y.(term.Var)] = true
		}
		for _, x := range headVarsOutsideGroups(r.Head) {
			if !seen[x] {
				seen[x] = true
				yVars = append(yVars, x)
			}
		}
	}

	q := g.pred(r.Head.Pred + "_q")
	q1 := g.pred(r.Head.Pred + "_q1")

	// q(Ȳ, term_1, ..., term_n) <- body.   (may still be complex)
	qRule := ast.Rule{
		Head: ast.Literal{Pred: q, Args: append(append([]term.Term{}, yVars...), termArgs...)},
		Body: append([]ast.Literal{}, r.Body...),
	}

	// q1(Ȳ, g(...)) <- q(Ȳ, Y_1, ..., Y_n): rebuild the g-term with the
	// term positions replaced by the fresh variables.
	fresh := make([]term.Term, len(termArgs))
	for k := range fresh {
		fresh[k] = g.fresh()
	}
	rebuilt := make([]term.Term, len(inner.Args))
	copy(rebuilt, inner.Args)
	for k, j := range termPos {
		rebuilt[j] = fresh[k]
	}
	q1Rule := ast.Rule{
		Head: ast.Literal{Pred: q1, Args: append(append([]term.Term{}, yVars...), term.NewCompound(inner.Functor, rebuilt...))},
		Body: []ast.Literal{{Pred: q, Args: append(append([]term.Term{}, yVars...), fresh...)}},
	}

	// p(X̄, <S>) <- q1(Ȳ, S), body.
	s := g.fresh()
	final := cloneRuleReplacingHeadArg(r, i, term.NewGroup(s))
	final.Body = append([]ast.Literal{{Pred: q1, Args: append(append([]term.Term{}, yVars...), s)}}, final.Body...)

	// qRule may still contain complex head terms; q1Rule and final are
	// core, but run them through the pipeline anyway for uniformity.
	return nil, []ast.Rule{qRule, q1Rule, final}, nil
}

// nestingRule implements translation rule (iii): a head argument
// g(Ȳ, term_1, ..., term_n) that contains groupings nested inside a
// non-grouped term.
func nestingRule(r ast.Rule, i int, comp *term.Compound, g *gen) (emitted, pending []ast.Rule, err error) {
	z := varsToTerms(headVarsOutsideGroups(r.Head))

	var termArgs []term.Term
	var termPos []int
	for j, a := range comp.Args {
		if _, ok := a.(term.Var); !ok {
			termArgs = append(termArgs, a)
			termPos = append(termPos, j)
		}
	}

	q1 := g.pred(r.Head.Pred + "_n")
	q2 := g.pred(r.Head.Pred + "_n2")

	// q1(Z̄, term_1, ..., term_n) <- body.
	q1Rule := ast.Rule{
		Head: ast.Literal{Pred: q1, Args: append(append([]term.Term{}, z...), termArgs...)},
		Body: append([]ast.Literal{}, r.Body...),
	}

	// q2(Z̄, g(Ȳ, Y_1, ..., Y_n)) <- q1(Z̄, Y_1, ..., Y_n).
	fresh := make([]term.Term, len(termArgs))
	for k := range fresh {
		fresh[k] = g.fresh()
	}
	rebuilt := make([]term.Term, len(comp.Args))
	copy(rebuilt, comp.Args)
	for k, j := range termPos {
		rebuilt[j] = fresh[k]
	}
	q2Rule := ast.Rule{
		Head: ast.Literal{Pred: q2, Args: append(append([]term.Term{}, z...), term.NewCompound(comp.Functor, rebuilt...))},
		Body: []ast.Literal{{Pred: q1, Args: append(append([]term.Term{}, z...), fresh...)}},
	}

	// p(X̄, S) <- q2(Z̄, S), body.
	s := g.fresh()
	final := cloneRuleReplacingHeadArg(r, i, s)
	final.Body = append([]ast.Literal{{Pred: q2, Args: append(append([]term.Term{}, z...), s)}}, final.Body...)

	return nil, []ast.Rule{q1Rule, q2Rule, final}, nil
}
