package analyze

// The individual analysis passes.  Every pass works on the program as
// written — the LDL1.5 rewrite is attempted only to surface its own errors
// — because diagnostics must point at source positions, and rewrite-
// generated auxiliary rules have none.

import (
	"errors"
	"fmt"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/rewrite"
	"ldl1/internal/term"
)

// safetyPass reports the §2.2/§7 range-restriction violations (LDL001-004)
// via the shared limited-variable analysis of internal/ast.
func (a *analysis) safetyPass() {
	a.unsafe = map[int]bool{}
	a.unsafeVar = map[string]bool{}
	for i, r := range a.p.Rules {
		for _, uv := range ast.UnsafeVars(r) {
			a.unsafe[i] = true
			a.unsafeVar[varKey(i, uv.Var)] = true
			d := Diagnostic{Pred: r.Head.Pred, Rule: r.String()}
			switch uv.Kind {
			case ast.UnsafeFact:
				d.Code = CodeFactVars
				d.Message = fmt.Sprintf("fact contains variable %s; facts must be ground (§7)", uv.Var)
				d.Pos = rulePos(r, nil, uv.Var)
			case ast.UnsafeGrouped:
				d.Code = CodeUnsafeGroup
				d.Message = fmt.Sprintf("grouped variable %s is not limited by the rule body (§2.2, §7)", uv.Var)
				d.Pos = rulePos(r, nil, uv.Var)
			case ast.UnsafeNegated:
				lit := uv.Lit
				d.Code = CodeUnsafeNeg
				d.Message = fmt.Sprintf("variable %s of negated literal %s is not limited by the positive body (§2.2, §7)", uv.Var, lit.Positive())
				d.Pos = rulePos(r, &lit, uv.Var)
			default:
				d.Code = CodeUnsafeHead
				d.Message = fmt.Sprintf("head variable %s is not limited by the rule body (§2.2, §7)", uv.Var)
				d.Pos = rulePos(r, nil, uv.Var)
			}
			a.add(d)
		}
	}
}

func varKey(rule int, v term.Var) string {
	return fmt.Sprintf("%d/%s", rule, v)
}

// shapePass reports malformed grouping shapes (LDL005).  Core rules go
// through CheckRuleShape; LDL1.5 rules (complex head terms, body set
// patterns) are instead test-rewritten so that constructs the rewrite
// cannot express are reported with the rewrite's own explanation.
func (a *analysis) shapePass() {
	a.needsRW = map[int]bool{}
	for i, r := range a.p.Rules {
		pr := ast.NewProgram(r)
		if rewrite.NeedsRewrite(pr) {
			a.needsRW[i] = true
			if _, err := rewrite.Rewrite(pr); err != nil {
				a.unsafe[i] = true
				a.add(Diagnostic{
					Code:    CodeShape,
					Pos:     r.Pos,
					Pred:    r.Head.Pred,
					Rule:    r.String(),
					Message: err.Error(),
				})
			}
			continue
		}
		if err := ast.CheckRuleShape(r); err != nil {
			a.unsafe[i] = true
			msg := err.Error()
			var wfe *ast.WellFormedError
			if errors.As(err, &wfe) {
				msg = wfe.Msg
			}
			a.add(Diagnostic{
				Code:    CodeShape,
				Pos:     r.Pos,
				Pred:    r.Head.Pred,
				Rule:    r.String(),
				Message: msg,
			})
		}
	}
}

// groupMisusePass reports the §2.3 pitfall (LDL105): a grouped variable
// that also occurs free in the head partitions by itself, so every group
// is a singleton set.
func (a *analysis) groupMisusePass() {
	for _, r := range a.p.Rules {
		if !r.IsGroupingRule() {
			continue
		}
		grouped := map[term.Var]bool{}
		free := map[term.Var]bool{}
		var walk func(t term.Term, inGroup bool)
		walk = func(t term.Term, inGroup bool) {
			switch t := t.(type) {
			case term.Var:
				if inGroup {
					grouped[t] = true
				} else {
					free[t] = true
				}
			case *term.Group:
				walk(t.Inner, true)
			case *term.Compound:
				for _, arg := range t.Args {
					walk(arg, inGroup)
				}
			}
		}
		for _, arg := range r.Head.Args {
			walk(arg, false)
		}
		for _, v := range r.Head.Vars() {
			if !grouped[v] || !free[v] {
				continue
			}
			a.add(Diagnostic{
				Code: CodeGroupFree,
				Pos:  rulePos(r, nil, v),
				Pred: r.Head.Pred,
				Rule: r.String(),
				Message: fmt.Sprintf("variable %s is both grouped and free in the head: the free occurrence partitions by %s, so every group is the singleton {%s} (§2.3)",
					v, v, v),
			})
		}
	}
}

// singletonPass reports variables that occur exactly once in a rule
// (LDL104) — usually a typo.  Variables spelled with a leading underscore
// (including parser-generated anonymous variables) are exempt, as are
// variables already reported unsafe.
func (a *analysis) singletonPass() {
	for i, r := range a.p.Rules {
		if r.IsFact() {
			continue // ground or already LDL004
		}
		counts := map[term.Var]int{}
		var count func(t term.Term)
		count = func(t term.Term) {
			switch t := t.(type) {
			case term.Var:
				counts[t]++
			case *term.Group:
				count(t.Inner)
			case *term.Compound:
				for _, arg := range t.Args {
					count(arg)
				}
			}
		}
		for _, arg := range r.Head.Args {
			count(arg)
		}
		for _, l := range r.Body {
			for _, arg := range l.Args {
				count(arg)
			}
		}
		for _, v := range r.Vars() {
			if counts[v] != 1 || strings.HasPrefix(string(v), "_") || a.unsafeVar[varKey(i, v)] {
				continue
			}
			a.add(Diagnostic{
				Code:    CodeSingleton,
				Pos:     rulePos(r, nil, v),
				Pred:    r.Head.Pred,
				Rule:    r.String(),
				Message: fmt.Sprintf("variable %s occurs only once in the rule; use _ if this is intentional", v),
			})
		}
	}
}

// setPatternPass reports enumerated set patterns in rule bodies whose
// variables are never limited (LDL106): {X} is evaluated forward, never
// matched against a stored value, so such a pattern cannot bind X and the
// literal cannot execute.
func (a *analysis) setPatternPass() {
	for i, r := range a.p.Rules {
		if a.unsafe[i] || r.IsFact() {
			continue
		}
		limited := ast.Limited(r, nil)
		for bi := range r.Body {
			l := r.Body[bi]
			if l.Negated {
				continue
			}
			for _, arg := range l.Args {
				v, pat, ok := unlimitedSetVar(arg, limited)
				if !ok {
					continue
				}
				a.add(Diagnostic{
					Code: CodeSetPattern,
					Pos:  rulePos(r, &l, v),
					Pred: r.Head.Pred,
					Rule: r.String(),
					Message: fmt.Sprintf("set pattern %s cannot bind %s: enumerated sets are evaluated forward, never matched against stored values; bind %s first or use member(%s, S)",
						pat, v, v, v),
				})
				break
			}
		}
	}
}

// unlimitedSetVar finds a $set subterm of t (outside interpreted functors)
// containing a variable that is not limited, returning the variable and
// the pattern's rendering.
func unlimitedSetVar(t term.Term, limited map[term.Var]bool) (term.Var, string, bool) {
	switch t := t.(type) {
	case *term.Group:
		return unlimitedSetVar(t.Inner, limited)
	case *term.Compound:
		if t.Functor == "$set" {
			for _, v := range term.VarsOf(t) {
				if !limited[v] {
					return v, t.String(), true
				}
			}
			return "", "", false
		}
		if term.IsInterpretedFunctor(t.Functor) {
			return "", "", false
		}
		for _, arg := range t.Args {
			if v, pat, ok := unlimitedSetVar(arg, limited); ok {
				return v, pat, ok
			}
		}
	}
	return "", "", false
}

// admissibilityPass reports the §3.1 admissibility violation (LDL006) with
// the canonical witness cycle, relating each edge to the rule inducing it.
func (a *analysis) admissibilityPass() {
	_, err := layering.Stratify(a.p)
	if err == nil {
		return
	}
	a.notAdmissible = true
	var nae *layering.NotAdmissibleError
	if !errors.As(err, &nae) {
		return
	}
	edges := layering.Edges(a.p)
	cyc := nae.Cycle
	var related []Related
	var pos ast.Pos
	for k := 0; k+1 < len(cyc); k++ {
		from, to := cyc[k], cyc[k+1]
		best := -1
		for j, e := range edges {
			if e.From != from || e.To != to {
				continue
			}
			if best < 0 || (e.Strict && !edges[best].Strict) {
				best = j
			}
		}
		if best < 0 {
			continue
		}
		r := a.p.Rules[edges[best].RuleIndex]
		rel := "≥"
		if edges[best].Strict {
			rel = ">"
		}
		related = append(related, Related{
			Pos:     r.Pos,
			Message: fmt.Sprintf("%s %s %s via rule %q", from, rel, to, r.String()),
		})
		if !pos.Known() {
			pos = r.Pos
		}
	}
	// Anchor the diagnostic on the first strict edge's rule if one has a
	// position — that rule is what makes the cycle inadmissible.
	for _, rel := range related {
		if strings.Contains(rel.Message, " > ") && rel.Pos.Known() {
			pos = rel.Pos
			break
		}
	}
	a.add(Diagnostic{
		Code:    CodeNotAdmiss,
		Pos:     pos,
		Pred:    cyc[0],
		Message: fmt.Sprintf("program is not admissible: dependency cycle through grouping or negation: %s (§3.1)", strings.Join(cyc, " -> ")),
		Related: related,
	})
}

// modesPass plans every body with the evaluator's own planner, reporting
// floundering bodies (LDL007 — PR 4's runtime InstantiationError lifted to
// analysis time) and cartesian join steps (LDL108).  Queries are planned as
// anonymous rules; safety does not apply to them (free query variables are
// outputs), but floundering does.
func (a *analysis) modesPass() {
	for i, r := range a.p.Rules {
		if a.unsafe[i] || a.needsRW[i] || r.IsFact() {
			continue
		}
		a.checkBody(r, false)
	}
	for _, q := range a.queries {
		if len(q.Body) == 0 {
			continue
		}
		r := ast.Rule{Head: ast.NewLit("query"), Body: q.Body, Pos: q.Body[0].Pos}
		if qNeedsRewrite(q.Body) {
			continue
		}
		a.checkBody(r, true)
	}
}

func qNeedsRewrite(body []ast.Literal) bool {
	for _, l := range body {
		if l.HasGroup() {
			return true
		}
	}
	return false
}

func (a *analysis) checkBody(r ast.Rule, isQuery bool) {
	what := "rule body"
	ruleText := r.String()
	pred := r.Head.Pred
	if isQuery {
		what = "query"
		parts := make([]string, len(r.Body))
		for i, l := range r.Body {
			parts[i] = l.String()
		}
		ruleText = "?- " + strings.Join(parts, ", ") + "."
		pred = ""
	}
	plan, err := eval.CompileBody(r, -1, nil, nil)
	if err != nil {
		var fe *eval.FlounderError
		if !errors.As(err, &fe) {
			return
		}
		lits := make([]string, len(fe.Lits))
		var related []Related
		pos := r.Pos
		for i, l := range fe.Lits {
			lits[i] = l.String()
			if l.Pos.Known() {
				if !pos.Known() || i == 0 {
					pos = l.Pos
				}
				related = append(related, Related{
					Pos:     l.Pos,
					Message: l.String() + " never becomes sufficiently instantiated",
				})
			}
		}
		a.add(Diagnostic{
			Code: CodeFlounder,
			Pos:  pos,
			Pred: pred,
			Rule: ruleText,
			Message: fmt.Sprintf("%s cannot be ordered so built-ins and negated literals become ground: %s would raise an instantiation error at run time (§2.2)",
				what, strings.Join(lits, ", ")),
			Related: related,
		})
		return
	}
	for step, idx := range plan.Order {
		if step == 0 {
			continue
		}
		l := r.Body[idx]
		if l.Negated || ast.IsBuiltinPred(l.Pred) {
			continue
		}
		if len(plan.BoundCols[idx]) > 0 || len(l.Args) == 0 || len(l.Vars()) == 0 {
			continue
		}
		lit := l
		a.add(Diagnostic{
			Code: CodeCartesian,
			Pos:  rulePos(r, &lit, ""),
			Pred: pred,
			Rule: ruleText,
			Message: fmt.Sprintf("literal %s joins with no bound argument columns (cartesian product); reorder the %s or share a variable with an earlier literal",
				l, what),
		})
	}
}

// predicatePass reports unreachable (LDL101), undefined (LDL102), and
// arity-conflicting (LDL103) predicates.
func (a *analysis) predicatePass() {
	type site struct {
		pos  ast.Pos
		text string
	}
	// first[pred/arity] is the first occurrence of that predicate at that
	// arity; order tracks distinct arities per predicate in source order.
	first := map[string]site{}
	arities := map[string][]int{}
	record := func(l ast.Literal, pos ast.Pos) {
		key := fmt.Sprintf("%s/%d", l.Pred, l.Arity())
		if _, ok := first[key]; !ok {
			first[key] = site{pos: pos, text: l.Positive().String()}
			arities[l.Pred] = append(arities[l.Pred], l.Arity())
		}
	}
	litPos := func(r ast.Rule, l ast.Literal) ast.Pos {
		if l.Pos.Known() {
			return l.Pos
		}
		return r.Pos
	}
	for _, r := range a.p.Rules {
		record(r.Head, litPos(r, r.Head))
		for _, l := range r.Body {
			record(l, litPos(r, l))
		}
	}
	for _, q := range a.queries {
		for _, l := range q.Body {
			record(l, l.Pos)
		}
	}

	// Built-ins used at the wrong arity never match (or flounder); user
	// predicates used at conflicting arities are almost always typos,
	// since every predicate/arity pair is a distinct relation.
	for pred, as := range arities {
		if want, ok := builtinArity[pred]; ok {
			for _, got := range as {
				if got == want {
					continue
				}
				s := first[fmt.Sprintf("%s/%d", pred, got)]
				a.add(Diagnostic{
					Code:    CodeArity,
					Pos:     s.pos,
					Pred:    pred,
					Message: fmt.Sprintf("built-in %s expects %d arguments, got %d in %s", pred, want, got, s.text),
				})
			}
			continue
		}
		if len(as) < 2 {
			continue
		}
		base := as[0]
		baseSite := first[fmt.Sprintf("%s/%d", pred, base)]
		for _, got := range as[1:] {
			s := first[fmt.Sprintf("%s/%d", pred, got)]
			a.add(Diagnostic{
				Code:    CodeArity,
				Pos:     s.pos,
				Pred:    pred,
				Message: fmt.Sprintf("predicate %s used with %d arguments here but %d at %s", pred, got, base, baseSite.pos),
				Related: []Related{{Pos: baseSite.pos, Message: fmt.Sprintf("%s first used with %d arguments: %s", pred, base, baseSite.text)}},
			})
		}
	}

	// Undefined predicates: only meaningful when the unit looks
	// self-contained — it defines at least one fact, or the caller supplied
	// the engine's known predicates.  A pure rule library legitimately
	// references relations loaded elsewhere.
	hasFacts := false
	for _, r := range a.p.Rules {
		if r.IsFact() {
			hasFacts = true
			break
		}
	}
	defined := a.p.HeadPreds()
	if hasFacts || len(a.opts.KnownPreds) > 0 {
		reported := map[string]bool{}
		checkDefined := func(l ast.Literal, pos ast.Pos) {
			if ast.IsBuiltinPred(l.Pred) || defined[l.Pred] || a.opts.KnownPreds[l.Pred] || reported[l.Pred] {
				return
			}
			reported[l.Pred] = true
			a.add(Diagnostic{
				Code:    CodeUndefined,
				Pos:     pos,
				Pred:    l.Pred,
				Message: fmt.Sprintf("predicate %s/%d has no rules and no facts (possible typo)", l.Pred, l.Arity()),
			})
		}
		for _, r := range a.p.Rules {
			for _, l := range r.Body {
				checkDefined(l, litPos(r, l))
			}
		}
		for _, q := range a.queries {
			for _, l := range q.Body {
				checkDefined(l, l.Pos)
			}
		}
	}

	// Unreachable predicates: rule-defined predicates no query depends on,
	// reported only when the unit has queries at all.  Facts-only
	// predicates are data, not dead code.
	if len(a.queries) == 0 {
		return
	}
	reach := map[string]bool{}
	var visit func(pred string)
	visit = func(pred string) {
		if reach[pred] || ast.IsBuiltinPred(pred) {
			return
		}
		reach[pred] = true
		for _, r := range a.p.Rules {
			if r.Head.Pred != pred {
				continue
			}
			for _, l := range r.Body {
				visit(l.Pred)
			}
		}
	}
	for _, q := range a.queries {
		for _, l := range q.Body {
			visit(l.Pred)
		}
	}
	reported := map[string]bool{}
	for _, r := range a.p.Rules {
		if r.IsFact() || reach[r.Head.Pred] || reported[r.Head.Pred] {
			continue
		}
		reported[r.Head.Pred] = true
		a.add(Diagnostic{
			Code:    CodeUnreachable,
			Pos:     r.Pos,
			Pred:    r.Head.Pred,
			Rule:    r.String(),
			Message: fmt.Sprintf("predicate %s is defined by rules but unreachable from any query in this unit", r.Head.Pred),
		})
	}
}

// builtinArity is the required arity of each reserved predicate.
var builtinArity = map[string]int{
	"member": 2, "union": 3, "partition": 3, "set": 1,
	"=": 2, "/=": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
	"true": 0, "false": 0,
}

// nonTerminationPass reports recursive rules that build new terms from
// recursive bindings (LDL107): the universe U is infinite (§2.2), so a
// function symbol, scons, or arithmetic applied to values flowing around
// an SCC can generate facts forever.  The engine's WithLimit/WithMemBudget
// guards exist for exactly these programs.
func (a *analysis) nonTerminationPass() {
	sccs := layering.SCCs(a.p)
	comp := map[string]int{}
	for i, scc := range sccs {
		for _, pred := range scc {
			comp[pred] = i
		}
	}
	recursive := map[string]bool{}
	for _, scc := range sccs {
		if len(scc) > 1 {
			for _, pred := range scc {
				recursive[pred] = true
			}
		}
	}
	for _, e := range layering.Edges(a.p) {
		if e.From == e.To {
			recursive[e.From] = true
		}
	}

	for i, r := range a.p.Rules {
		if a.unsafe[i] || r.IsFact() {
			continue
		}
		head := r.Head.Pred
		if !recursive[head] {
			continue
		}
		// growth: variables bound by positive body literals of the same
		// SCC — the values that flow around the cycle.
		growth := map[term.Var]bool{}
		for _, l := range r.Body {
			if l.Negated || ast.IsBuiltinPred(l.Pred) || comp[l.Pred] != comp[head] {
				continue
			}
			for _, v := range l.Vars() {
				growth[v] = true
			}
		}
		if len(growth) == 0 {
			continue
		}
		// grown: variables derived from growth variables through a functor
		// in a body = (aliases X = Y just propagate growth).
		grown := map[term.Var]bool{}
		feeds := func(t term.Term) bool {
			for _, v := range term.VarsOf(t) {
				if growth[v] || grown[v] {
					return true
				}
			}
			return false
		}
		for changed := true; changed; {
			changed = false
			for _, l := range r.Body {
				if l.Negated || l.Pred != "=" || len(l.Args) != 2 {
					continue
				}
				for side := 0; side < 2; side++ {
					v, ok := l.Args[side].(term.Var)
					if !ok {
						continue
					}
					other := l.Args[1-side]
					if _, isComp := other.(*term.Compound); isComp && feeds(other) && !grown[v] {
						grown[v] = true
						changed = true
					}
					if ov, ok := other.(term.Var); ok && (growth[ov] || grown[ov]) && !growth[v] && !grown[v] {
						growth[v] = true
						changed = true
					}
				}
			}
		}
		// Offending head argument: a growth variable strictly under a
		// functor, or a grown variable anywhere.
		var offVar term.Var
		var offFun string
		var walk func(t term.Term, depth int) bool
		walk = func(t term.Term, depth int) bool {
			switch t := t.(type) {
			case term.Var:
				if grown[t] || (depth > 0 && growth[t]) {
					offVar = t
					return true
				}
			case *term.Compound:
				for _, arg := range t.Args {
					if walk(arg, depth+1) {
						if offFun == "" {
							offFun = t.Functor
						}
						return true
					}
				}
			}
			// Group arguments are excluded: a grouping head forces strict
			// edges, so it cannot sit on a cycle of an admissible program.
			return false
		}
		found := false
		for _, arg := range r.Head.Args {
			if walk(arg, 0) {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		how := fmt.Sprintf("applies %s to", offFun)
		if offFun == "" {
			how = "computes new values from"
		}
		a.add(Diagnostic{
			Code: CodeNonTerm,
			Pos:  rulePos(r, nil, offVar),
			Pred: head,
			Rule: r.String(),
			Message: fmt.Sprintf("recursive rule for %s %s bindings of its own recursion (variable %s); bottom-up evaluation may not terminate — consider WithLimit or WithMemBudget",
				head, how, offVar),
		})
	}
}
