package ldl1

import (
	"context"
	"fmt"
	"strings"

	"ldl1/internal/analyze/types"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/term"
)

// Explain returns a proof tree showing why a fact holds in the program's
// minimal model: the rule instance that derived it and, recursively, the
// derivations of the body facts it matched.  Returns an error if the fact
// is not in the model.  The evaluation runs under the engine's WithLimit,
// WithDeadline and WithMemBudget bounds, against the facts loaded when it
// starts.
//
//	why, _ := eng.Explain("ancestor(abe, carl)")
//	fmt.Println(why)
//	// ancestor(abe, carl)   [by ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).]
//	//   parent(abe, bob).   [fact]
//	//   ancestor(bob, carl)   [by ancestor(X, Y) <- parent(X, Y).]
//	//     parent(bob, carl).   [fact]
func (e *Engine) Explain(factSrc string) (string, error) {
	p, err := parser.ParseProgram(factSrc + ".")
	if err != nil {
		return "", err
	}
	if len(p.Rules) != 1 || !p.Rules[0].IsFact() {
		return "", fmt.Errorf("ldl1: %q is not a single fact", factSrc)
	}
	h := p.Rules[0].Head
	f := term.NewFact(h.Pred, h.Args...)

	ctx, cancel := withDeadline(context.Background(), e.cfg.deadline)
	defer cancel()
	e.mu.RLock()
	edb := e.edb.Clone()
	opts := e.evalOpts(ctx, nil)
	e.mu.RUnlock()
	prov := eval.NewProvenance()
	opts.Provenance = prov
	if err := e.prog.Run(edb, opts, nil); err != nil {
		return "", err
	}
	if !edb.Contains(f) {
		return "", fmt.Errorf("ldl1: %s is not in the model", f)
	}
	return prov.Explain(f), nil
}

// ExplainQuery returns the compilation artifacts for a query: the adorned
// program and the magic-rewritten rules in the paper's §6 notation (the
// supplementary rewriting under WithSupplementaryMagic), plus
// the cost-based join plan the evaluator would run — for every rule in the
// query's dependency cone, the literal execution order with the planner's
// bound columns and candidate estimates against the current database.
func (e *Engine) ExplainQuery(q string) (adorned, rewritten, plan string, err error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return "", "", "", err
	}
	pr, err := magic.PrepareVariant(e.source, query, e.cfg.magicVariant())
	if err != nil {
		return "", "", "", err
	}
	return pr.Adorned.String(), pr.Rewritten.Program.String(), e.planString(query), nil
}

// planString renders the cost-based join plan of every rule in the query's
// dependency cone (all non-fact rules when the query is not a single
// positive literal): the execution order with each step's bound columns
// and the planner's candidate estimate against the current database.
func (e *Engine) planString(query parser.Query) string {
	var cone map[string]bool
	if len(query.Body) == 1 && !query.Body[0].Negated {
		cone = e.r.cone(query.Body[0].Pred)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sb strings.Builder
	env := types.Infer(e.source, nil, types.Options{Known: e.knownPreds()}).Env
	if sigs := env.Render(); len(sigs) > 0 {
		sb.WriteString("-- inferred signatures\n")
		for _, s := range sigs {
			fmt.Fprintf(&sb, "--   %s/%d: (%s)\n", s.Pred, s.Arity, strings.Join(s.Args, ", "))
		}
	}
	for _, r := range e.source.Rules {
		if r.IsFact() {
			continue
		}
		if cone != nil && !cone[r.Head.Pred] {
			continue
		}
		db := e.edb
		if e.cfg.noReorder {
			db = nil
		}
		p, err := eval.CompileBody(r, -1, nil, db)
		if err != nil {
			fmt.Fprintf(&sb, "%s  -- unplannable: %v\n", r.String(), err)
			continue
		}
		sb.WriteString(r.String())
		if p.Reordered {
			sb.WriteString("  -- reordered")
		}
		sb.WriteByte('\n')
		for step, idx := range p.Order {
			l := r.Body[idx]
			fmt.Fprintf(&sb, "  %d. %s", step+1, l.String())
			if cols := p.BoundCols[idx]; len(cols) > 0 {
				fmt.Fprintf(&sb, "  bound=%v", cols)
			}
			if p.Est != nil && !l.Negated && !layering.IsBuiltin(l.Pred) {
				fmt.Fprintf(&sb, "  est=%d", p.Est[step])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
