package magic

import (
	"strconv"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/term"
)

// RewriteSupplementary produces the supplementary-magic-sets variant of the
// §6 rewriting (the full algorithm of the paper's [BR87] reference): each
// rule's body prefix is materialized once in a chain of supplementary
// predicates sup_{r,j} carrying exactly the live variables, so magic rules
// and the modified rule never re-evaluate a shared prefix.
//
//	sup_{r,0}(B̄)   <- magic_p^a(bound head args).
//	sup_{r,j}(V̄_j) <- sup_{r,j-1}(V̄_{j-1}), l_j.
//	magic_q^aj(..) <- sup_{r,j-1}(V̄_{j-1}).
//	p^a(t̄)         <- sup_{r,n}(V̄_n).
//
// where V̄_j are the variables bound after literal j that are still needed
// by a later literal or by the head.
func RewriteSupplementary(ap *AdornedProgram) (*Rewritten, error) {
	lay, err := layering.Stratify(ap.Original)
	if err != nil {
		return nil, err
	}
	lay = lay.Coarse() // grouped as Rewrite groups
	out := &Rewritten{
		Program:    ast.NewProgram(),
		AnswerPred: adornedName(ap.QueryPred, ap.QueryAdorn),
		MagicPreds: map[string]bool{},
	}

	for ri, ar := range ap.Rules {
		// Strata are doubled so that the supplementary chain of a
		// grouping rule can sit strictly below the grouping itself
		// (grouping rules are evaluated once, before their layer's
		// fixpoint).
		headStratum := 2 * lay.Stratum[ar.Rule.Head.Pred]
		chainStratum := headStratum
		if ar.Rule.IsGroupingRule() {
			chainStratum = headStratum - 1
			if chainStratum < 0 {
				chainStratum = 0
			}
		}
		headName := adornedName(ar.Rule.Head.Pred, ar.Head)
		mName := magicName(ar.Rule.Head.Pred, ar.Head)
		out.MagicPreds[mName] = true

		guard := boundArgs(ar.Head, ar.Rule.Head.Args, true)
		headVars := map[term.Var]bool{}
		for _, v := range ar.Rule.Head.Vars() {
			headVars[v] = true
		}

		// Rename body literals to adorned names where applicable.
		renamed := make([]ast.Literal, len(ar.Rule.Body))
		for i, l := range ar.Rule.Body {
			if ad, ok := ar.Adorns[i]; ok {
				renamed[i] = ast.Literal{Negated: l.Negated, Pred: adornedName(l.Pred, ad), Args: l.Args}
			} else {
				renamed[i] = l
			}
		}

		// Live variables after step j (on the sip order): needed by a
		// later literal or by the head.
		n := len(ar.Order)
		neededAfter := make([]map[term.Var]bool, n+1)
		neededAfter[n] = headVars
		for j := n - 1; j >= 0; j-- {
			cur := map[term.Var]bool{}
			for v := range neededAfter[j+1] {
				cur[v] = true
			}
			for _, v := range ar.Rule.Body[ar.Order[j]].Vars() {
				cur[v] = true
			}
			neededAfter[j] = cur
		}

		supName := func(j int) string {
			return supPredName(ri, j)
		}
		liveVars := func(j int, bound map[term.Var]bool) []term.Term {
			// Variables bound so far that are still needed later.
			var out []term.Term
			for _, v := range ar.Rule.Vars() {
				if bound[v] && neededAfter[j+1][v] {
					out = append(out, v)
				}
			}
			return out
		}

		// sup_0 <- magic_p(bound head args).
		bound := map[term.Var]bool{}
		for _, a := range guard {
			for _, v := range term.VarsOf(a) {
				bound[v] = true
			}
		}
		sup0Args := liveVars(-1, bound)
		out.add(ast.Rule{
			Head: ast.Literal{Pred: supName(0), Args: sup0Args},
			Body: []ast.Literal{{Pred: mName, Args: guard}},
		}, chainStratum)

		prevSup := ast.Literal{Pred: supName(0), Args: sup0Args}
		for step, idx := range ar.Order {
			l := ar.Rule.Body[idx]
			// Magic rule for IDB subgoals, fed by the supplementary.
			if ad, ok := ar.Adorns[idx]; ok {
				qm := magicName(l.Pred, ad)
				out.MagicPreds[qm] = true
				out.add(ast.Rule{
					Head: ast.Literal{Pred: qm, Args: boundArgs(ad, l.Args, false)},
					Body: []ast.Literal{prevSup},
				}, chainStratum)
			}
			// Advance the chain.
			for _, v := range l.Vars() {
				bound[v] = true
			}
			supArgs := liveVars(step, bound)
			out.add(ast.Rule{
				Head: ast.Literal{Pred: supName(step + 1), Args: supArgs},
				Body: []ast.Literal{prevSup, renamed[idx]},
			}, chainStratum)
			prevSup = ast.Literal{Pred: supName(step + 1), Args: supArgs}
		}

		// Modified rule: head from the final supplementary.
		out.add(ast.Rule{
			Head: ast.Literal{Pred: headName, Args: ar.Rule.Head.Args},
			Body: []ast.Literal{prevSup},
		}, headStratum)
	}

	// Facts and seed exactly as in the basic rewriting.
	if err := out.finish(ap, lay, 2); err != nil {
		return nil, err
	}
	return out, nil
}

func supPredName(rule, step int) string {
	return "sup__" + strconv.Itoa(rule) + "_" + strconv.Itoa(step)
}

// Variant selects the §6 rewriting algorithm.
type Variant int

// Rewriting variants.
const (
	// Basic is the Generalized Magic Sets rewriting of Rewrite.
	Basic Variant = iota
	// Supplementary materializes rule prefixes in sup predicates.
	Supplementary
)
