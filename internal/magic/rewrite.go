package magic

import (
	"fmt"
	"slices"

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
	// must be evaluated with Prepared.Exec, not eval.Eval.
	Program *ast.Program
	// Seed is the magic fact for the query's bound arguments.
	Seed ast.Rule
	// AnswerPred is the adorned name of the query predicate.
	AnswerPred string
	// Groups is the pass schedule of the evaluator: every rule of Program
	// but the seed, in Program order.  A modified rule sits at the layer of
	// its head in the ORIGINAL program, so negated and grouped predicates
	// are complete before it runs; a magic rule sits in the lowest group
	// that has completed the body prefix it reads (Rewrite) or beside the
	// supplementary chain it reads (RewriteSupplementary), so a binding
	// reaches the rules it guards in the pass that finds it whenever the
	// layering lets it.
	Groups [][]ast.Rule
	// MagicPreds lists the magic predicate names.
	MagicPreds map[string]bool
}

// add appends a rewritten rule to the program and to group g of the schedule.
func (rw *Rewritten) add(r ast.Rule, g int) {
	rw.Program.Add(r)
	for len(rw.Groups) <= g {
		rw.Groups = append(rw.Groups, nil)
	}
	rw.Groups[g] = append(rw.Groups[g], r)
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
	// Groups follow the minimum-index layering: the finest one splits the
	// rewritten program into more groups, and a recursive magic program
	// then saturates in more passes.
	lay = lay.Coarse()
	out := &Rewritten{
		Program:    ast.NewProgram(),
		AnswerPred: adornedName(ap.QueryPred, ap.QueryAdorn),
		MagicPreds: map[string]bool{},
	}

	for _, ar := range ap.Rules {
		headName := adornedName(ar.Rule.Head.Pred, ar.Head)
		mName := magicName(ar.Rule.Head.Pred, ar.Head)
		out.MagicPreds[mName] = true

		magicHeadLit := ast.Literal{Pred: mName, Args: boundArgs(ar.Head, ar.Rule.Head.Args, true)}

		// Walk the sip order accumulating the prefix; generate a magic
		// rule per IDB body literal, then the modified rule.  prefixDone is
		// the lowest group in which the prefix so far is fully evaluated.
		var prefix []ast.Literal
		prefixDone := 0
		renamedBody := make([]ast.Literal, len(ar.Rule.Body))
		copy(renamedBody, ar.Rule.Body)
		for _, idx := range ar.Order {
			l := ar.Rule.Body[idx]
			if ad, ok := ar.Adorns[idx]; ok {
				// Magic rule: magic_q^ad(bound args) <- magic_p^a(...), prefix.
				qm := magicName(l.Pred, ad)
				out.MagicPreds[qm] = true
				out.add(ast.Rule{
					Head: ast.Literal{Pred: qm, Args: boundArgs(ad, l.Args, false)},
					Body: append([]ast.Literal{magicHeadLit}, prefix...),
				}, prefixDone)
				// Rename the occurrence in the modified rule.
				renamedBody[idx] = ast.Literal{Negated: l.Negated, Pred: adornedName(l.Pred, ad), Args: l.Args}
				done := lay.Stratum[l.Pred]
				if l.Negated {
					done++ // a negated literal reads a finished layer
				}
				if done > prefixDone {
					prefixDone = done
				}
			}
			prefix = append(prefix, renamedBody[idx])
		}
		out.add(ast.Rule{
			Head: ast.Literal{Pred: headName, Args: ar.Rule.Head.Args},
			Body: append([]ast.Literal{magicHeadLit}, renamedBody...),
		}, lay.Stratum[ar.Rule.Head.Pred])
	}
	if err := out.finish(ap, lay, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// finish carries the original program's facts over — base-relation facts
// unchanged, facts of IDB predicates as magic-guarded adorned facts — and
// adds the seed, magic_q^a(query constants).  scale maps an original stratum
// to its group (the supplementary variant doubles strata).
func (rw *Rewritten) finish(ap *AdornedProgram, lay *layering.Layering, scale int) error {
	for _, r := range ap.Original.Rules {
		if r.IsFact() && !ap.IDB[r.Head.Pred] {
			rw.add(r, 0)
		}
	}
	factAdorns := map[string][]Adornment{}
	for _, ar := range ap.Rules {
		if p := ar.Rule.Head.Pred; !slices.Contains(factAdorns[p], ar.Head) {
			factAdorns[p] = append(factAdorns[p], ar.Head)
		}
	}
	for _, r := range ap.Original.Rules {
		if !r.IsFact() || !ap.IDB[r.Head.Pred] {
			continue
		}
		for _, ad := range factAdorns[r.Head.Pred] {
			rw.add(ast.Rule{
				Head: ast.Literal{Pred: adornedName(r.Head.Pred, ad), Args: r.Head.Args},
				Body: []ast.Literal{{Pred: magicName(r.Head.Pred, ad), Args: boundArgs(ad, r.Head.Args, false)}},
			}, scale*lay.Stratum[r.Head.Pred])
		}
	}

	var seedArgs []term.Term
	for i, a := range ap.QueryLit.Args {
		if ap.QueryAdorn.Bound(i) {
			v, err := unify.Apply(a, unify.NewBindings())
			if err != nil {
				return fmt.Errorf("magic: query argument %s: %w", a, err)
			}
			seedArgs = append(seedArgs, v)
		}
	}
	rw.Seed = ast.Rule{Head: ast.Literal{Pred: magicName(ap.QueryPred, ap.QueryAdorn), Args: seedArgs}}
	rw.Program.Add(rw.Seed)
	return nil
}

// passes reports whether a bound head argument passes its binding into the
// body.  A group <X> does not (§6 footnote 6), nor does a term with an
// interpreted functor (scons(Z, S), {Y}, X + 1), which matching evaluates.
func passes(a term.Term) bool {
	c, ok := a.(*term.Compound)
	_, group := a.(*term.Group)
	return !group && (!ok || c.Pure())
}

// boundArgs returns the arguments at the positions ad binds: the arguments
// of a magic predicate.  In a head, one that passes no binding keeps its
// column as a variable of its own, so the guard's arity matches the seed's
// and every caller's.
func boundArgs(ad Adornment, args []term.Term, head bool) []term.Term {
	var out []term.Term
	for i, a := range args {
		if !ad.Bound(i) {
			continue
		}
		if head && !passes(a) {
			a = term.Var(fmt.Sprintf("$group%d", i))
		}
		out = append(out, a)
	}
	return out
}
