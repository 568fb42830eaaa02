package magic

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Rewritten is the output of the Generalized Magic Sets rewriting (§6,
// third step): the rewritten rules, the seed fact, and the renaming needed
// to read answers back.
type Rewritten struct {
	// Program holds the magic and modified rules.  It is generally NOT
	// layered (§6 notes the cyclicity through magic predicates), so it
	// must be evaluated with Answer, not eval.Eval.
	Program *ast.Program
	// Seed is the magic fact for the query's bound arguments.
	Seed ast.Rule
	// AnswerPred is the adorned name of the query predicate.
	AnswerPred string
	// Strata assigns each rewritten rule group index (by head predicate)
	// using the ORIGINAL program's layering, which drives the pass
	// schedule of the evaluator.
	Strata map[string]int
	// NumStrata is 1 + the maximum stratum.
	NumStrata int
	// MagicPreds lists the magic predicate names.
	MagicPreds map[string]bool
}

// adornedName mangles p with adornment a, matching the paper's p^a.
func adornedName(pred string, a Adornment) string {
	if len(a) == 0 {
		return pred + "__0"
	}
	return pred + "__" + string(a)
}

// magicName is the name of the magic predicate for p^a.
func magicName(pred string, a Adornment) string {
	return "magic__" + pred + "__" + string(a)
}

// Rewrite performs the Generalized Magic Sets transformation on an adorned
// program.
func Rewrite(ap *AdornedProgram) (*Rewritten, error) {
	lay, err := layering.Stratify(ap.Original)
	if err != nil {
		return nil, err
	}
	out := &Rewritten{
		Program:    ast.NewProgram(),
		AnswerPred: adornedName(ap.QueryPred, ap.QueryAdorn),
		Strata:     map[string]int{},
		MagicPreds: map[string]bool{},
	}
	assign := func(pred string, stratum int) {
		if s, ok := out.Strata[pred]; !ok || stratum > s {
			out.Strata[pred] = stratum
		}
	}

	for _, ar := range ap.Rules {
		headStratum := lay.Stratum[ar.Rule.Head.Pred]
		headName := adornedName(ar.Rule.Head.Pred, ar.Head)
		mName := magicName(ar.Rule.Head.Pred, ar.Head)
		out.MagicPreds[mName] = true
		assign(headName, headStratum)
		assign(mName, headStratum)

		// Bound head arguments.  A bound grouping argument passes no
		// binding (§6 footnote 6) but keeps its column, as a variable of its
		// own, so the guard's arity matches the seed's and every caller's.
		var boundArgs []term.Term
		for i, a := range ar.Rule.Head.Args {
			if ar.Head.Bound(i) {
				if _, isGroup := a.(*term.Group); isGroup {
					a = groupColumn(i)
				}
				boundArgs = append(boundArgs, a)
			}
		}
		magicHeadLit := ast.Literal{Pred: mName, Args: boundArgs}

		// Walk the sip order accumulating the prefix; generate a magic
		// rule per IDB body literal, then the modified rule.
		var prefix []ast.Literal
		renamedBody := make([]ast.Literal, len(ar.Rule.Body))
		for i, l := range ar.Rule.Body {
			renamedBody[i] = l
		}
		for _, idx := range ar.Order {
			l := ar.Rule.Body[idx]
			if ad, ok := ar.Adorns[idx]; ok {
				// Magic rule: magic_q^ad(bound args) <- magic_p^a(...), prefix.
				var qBound []term.Term
				for i, a := range l.Args {
					if ad.Bound(i) {
						qBound = append(qBound, a)
					}
				}
				qm := magicName(l.Pred, ad)
				out.MagicPreds[qm] = true
				assign(qm, headStratum)
				mr := ast.Rule{
					Head: ast.Literal{Pred: qm, Args: qBound},
					Body: append([]ast.Literal{magicHeadLit}, prefix...),
				}
				out.Program.Add(mr)
				// Rename the occurrence in the modified rule.
				renamedBody[idx] = ast.Literal{Negated: l.Negated, Pred: adornedName(l.Pred, ad), Args: l.Args}
				assign(adornedName(l.Pred, ad), lay.Stratum[l.Pred])
			}
			prefix = append(prefix, renamedBody[idx])
		}
		modified := ast.Rule{
			Head: ast.Literal{Pred: headName, Args: ar.Rule.Head.Args},
			Body: append([]ast.Literal{magicHeadLit}, renamedBody...),
		}
		out.Program.Add(modified)
	}

	// Base-relation facts carry over unchanged.
	for _, r := range ap.Original.Rules {
		if r.IsFact() && !ap.IDB[r.Head.Pred] {
			out.Program.Add(r)
			assign(r.Head.Pred, 0)
		}
	}

	// Facts for IDB predicates become magic-guarded adorned facts.
	factAdorns := map[string][]Adornment{}
	for _, ar := range ap.Rules {
		factAdorns[ar.Rule.Head.Pred] = appendUniqueAdorn(factAdorns[ar.Rule.Head.Pred], ar.Head)
	}
	for _, r := range ap.Original.Rules {
		if !r.IsFact() || !ap.IDB[r.Head.Pred] {
			continue
		}
		for _, ad := range factAdorns[r.Head.Pred] {
			var bound []term.Term
			for i, a := range r.Head.Args {
				if ad.Bound(i) {
					bound = append(bound, a)
				}
			}
			out.Program.Add(ast.Rule{
				Head: ast.Literal{Pred: adornedName(r.Head.Pred, ad), Args: r.Head.Args},
				Body: []ast.Literal{{Pred: magicName(r.Head.Pred, ad), Args: bound}},
			})
		}
	}

	// Seed: magic_q^a(query constants).
	var seedArgs []term.Term
	for i, a := range ap.QueryLit.Args {
		if ap.QueryAdorn.Bound(i) {
			v, err := unify.Apply(a, unify.NewBindings())
			if err != nil {
				return nil, fmt.Errorf("magic: query argument %s: %w", a, err)
			}
			seedArgs = append(seedArgs, v)
		}
	}
	out.Seed = ast.Rule{Head: ast.Literal{Pred: magicName(ap.QueryPred, ap.QueryAdorn), Args: seedArgs}}
	out.Program.Add(out.Seed)

	max := 0
	for _, s := range out.Strata {
		if s > max {
			max = s
		}
	}
	out.NumStrata = max + 1
	return out, nil
}

// groupColumn is the variable standing in a magic guard for the bound
// grouping argument at head position i.
func groupColumn(i int) term.Var { return term.Var(fmt.Sprintf("$group%d", i)) }

func appendUniqueAdorn(list []Adornment, a Adornment) []Adornment {
	for _, x := range list {
		if x == a {
			return list
		}
	}
	return append(list, a)
}
