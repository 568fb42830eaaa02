package types

import (
	"fmt"
	"sort"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/term"
)

// Sig is a predicate's inferred argument signature: the join, over every
// fact and every live rule head, of each argument's type.  An all-⊥ Sig
// means the predicate is provably empty.
type Sig []Type

func (s Sig) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// sigKey identifies one relation: predicates with different arities are
// distinct relations in LDL1.
type sigKey struct {
	pred  string
	arity int
}

// Env is the inferred type environment of one program: a signature per
// defined predicate/arity.  Predicates the program does not define (EDB
// relations declared via Options.Known, or genuinely undefined ones) have
// no entry and read as ⊤ everywhere.
type Env struct {
	sigs    map[sigKey]Sig
	defined map[sigKey]bool
	// known mirrors Options.Known: predicates whose facts live outside the
	// program.  Their columns read as ⊤ even when the program also defines
	// them — external facts can have any type.
	known map[string]bool
}

// Sig returns the inferred signature for pred/arity and whether the
// environment constrains it at all.
func (e *Env) Sig(pred string, arity int) (Sig, bool) {
	if e == nil {
		return nil, false
	}
	s, ok := e.sigs[sigKey{pred, arity}]
	return s, ok
}

// PredSig is one rendered signature row for tooling surfaces (vet -sigs,
// ExplainQuery, REPL :check).
type PredSig struct {
	Pred  string   `json:"pred"`
	Arity int      `json:"arity"`
	Args  []string `json:"args"`
}

// Render returns every inferred signature, sorted by predicate then arity.
func (e *Env) Render() []PredSig {
	if e == nil {
		return nil
	}
	out := make([]PredSig, 0, len(e.sigs))
	for k, s := range e.sigs {
		if e.known[k.pred] {
			continue // partial: external facts widen every column to ⊤
		}
		args := make([]string, len(s))
		for i, t := range s {
			args[i] = t.String()
		}
		out = append(out, PredSig{Pred: k.pred, Arity: k.arity, Args: args})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// FindingKind discriminates the analysis findings of the pass.
type FindingKind uint8

const (
	// FindClash: a = or comparison literal whose sides can never share a
	// ground value (unification) or whose result is decided by kind order
	// alone (comparison).
	FindClash FindingKind = iota
	// FindIllTyped: a built-in applied to an argument whose inferred type
	// excludes every type the built-in can operate on.
	FindIllTyped
	// FindDead: a rule (or query) that can never produce a tuple — some
	// body literal is statically unsatisfiable, e.g. it references a
	// provably empty predicate or a constant that no fact can match.
	FindDead
	// FindMixedGroup: a grouping head collects elements of provably mixed
	// kinds.
	FindMixedGroup
)

// Finding is one typed-analysis result, positioned by the caller (the
// analyze package owns diagnostic codes and position resolution).
type Finding struct {
	Kind FindingKind
	// RuleIndex indexes Program.Rules; -1 for query findings.
	RuleIndex int
	// QueryIndex indexes the queries slice passed to Infer; -1 for rules.
	QueryIndex int
	// Lit is the anchoring body literal when HasLit.
	Lit    ast.Literal
	HasLit bool
	// Var anchors variable-level findings (mixed grouping).
	Var term.Var
	// Message is the fully formed human-readable description.
	Message string
}

// Options configures an inference run.
type Options struct {
	// Known marks predicates defined outside the program (an engine's
	// extensional store): they type as ⊤, never as empty.
	Known map[string]bool
	// Skip marks rule indexes to treat opaquely: their heads contribute ⊤
	// and their bodies are not interpreted.  The analyze package passes
	// unsafe and LDL1.5 rules here — the engine evaluates their rewritten
	// form, not the source body.
	Skip map[int]bool
}

// Result carries the inferred environment and the findings of one run.
type Result struct {
	Env      *Env
	Findings []Finding
}

// Infer computes predicate signatures to fixpoint and interprets every
// rule body (and query body) once more under the final environment to
// collect findings.  Queries are conjunctions of body literals; pass nil
// when there are none.
func Infer(p *ast.Program, queries [][]ast.Literal, opts Options) *Result {
	st := &inferState{
		p:    p,
		opts: opts,
		env:  &Env{sigs: map[sigKey]Sig{}, defined: map[sigKey]bool{}, known: opts.Known},
	}
	for _, r := range p.Rules {
		st.env.defined[sigKey{r.Head.Pred, r.Head.Arity()}] = true
	}
	st.fixpoint()
	st.report(queries)
	return &Result{Env: st.env, Findings: st.findings}
}

type inferState struct {
	p        *ast.Program
	opts     Options
	env      *Env
	findings []Finding
}

// sigOf resolves the current signature of a body literal's predicate:
// inferred when defined by the program, ⊤ when external or undefined
// (LDL102's business, not ours), ⊥-sig (nil, ok=false distinguishable via
// defined) when defined but not yet derived.
func (st *inferState) sigOf(pred string, arity int) (Sig, bool) {
	k := sigKey{pred, arity}
	if st.env.known[pred] {
		return nil, false // external facts can have any type
	}
	if s, ok := st.env.sigs[k]; ok {
		return s, true
	}
	if st.env.defined[k] {
		return nil, true // defined, nothing derived yet: provably empty so far
	}
	return nil, false // external or undefined: unconstrained
}

// strataOrder groups rule indexes by stratum (source order within one),
// falling back to a single global group when the program is not
// admissible — the monotone joins still reach a fixpoint, only less
// incrementally.
func (st *inferState) strataOrder() [][]int {
	lay, err := layering.Stratify(st.p)
	if err != nil {
		all := make([]int, len(st.p.Rules))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	groups := make([][]int, lay.NumStrata)
	for i, r := range st.p.Rules {
		s := lay.PredStratum(r.Head.Pred)
		groups[s] = append(groups[s], i)
	}
	return groups
}

// fixpoint runs the join accumulation stratum by stratum.
func (st *inferState) fixpoint() {
	for _, group := range st.strataOrder() {
		for changed := true; changed; {
			changed = false
			for _, i := range group {
				if st.contribute(i) {
					changed = true
				}
			}
		}
	}
}

// contribute interprets rule i and joins its head tuple type into the
// predicate's signature, reporting whether the signature changed.
func (st *inferState) contribute(i int) bool {
	r := st.p.Rules[i]
	key := sigKey{r.Head.Pred, r.Head.Arity()}
	var tuple []Type
	if st.opts.Skip[i] {
		tuple = make([]Type, r.Head.Arity())
		for j := range tuple {
			tuple[j] = Top()
		}
	} else {
		rc := st.interpret(r.Body, nil)
		if rc.dead {
			return false
		}
		tuple = make([]Type, r.Head.Arity())
		for j, a := range r.Head.Args {
			tuple[j] = widen(rc.typeOf(a), maxDepth)
		}
	}
	old, ok := st.env.sigs[key]
	if !ok {
		st.env.sigs[key] = Sig(tuple)
		return true
	}
	changed := false
	for j := range old {
		nw := Join(old[j], tuple[j])
		if !Equal(nw, old[j]) {
			old[j] = nw
			changed = true
		}
	}
	return changed
}

// report re-interprets every live rule and query under the final
// environment with finding collection enabled.
func (st *inferState) report(queries [][]ast.Literal) {
	for i, r := range st.p.Rules {
		if st.opts.Skip[i] || r.IsFact() {
			continue
		}
		sink := &findingSink{ruleIndex: i, queryIndex: -1}
		rc := st.interpret(r.Body, sink)
		if rc.dead && !sink.deadExplained {
			f := Finding{Kind: FindDead, RuleIndex: i, QueryIndex: -1,
				Message: fmt.Sprintf("rule can never derive a fact: %s", rc.deadReason)}
			if rc.deadLit != nil {
				f.Lit, f.HasLit = *rc.deadLit, true
			}
			sink.findings = append(sink.findings, f)
		}
		if !rc.dead {
			st.checkGrouping(i, r, rc, sink)
		}
		st.findings = append(st.findings, sink.findings...)
	}
	for qi, body := range queries {
		sink := &findingSink{ruleIndex: -1, queryIndex: qi}
		rc := st.interpret(body, sink)
		if rc.dead && !sink.deadExplained {
			f := Finding{Kind: FindDead, RuleIndex: -1, QueryIndex: qi,
				Message: fmt.Sprintf("query can never return an answer: %s", rc.deadReason)}
			if rc.deadLit != nil {
				f.Lit, f.HasLit = *rc.deadLit, true
			}
			sink.findings = append(sink.findings, f)
		}
		st.findings = append(st.findings, sink.findings...)
	}
}

// checkGrouping reports grouped variables whose element type is provably
// heterogeneous (FindMixedGroup).
func (st *inferState) checkGrouping(i int, r ast.Rule, rc *ruleCtx, sink *findingSink) {
	if !r.IsGroupingRule() {
		return
	}
	_, inner := r.Head.GroupArg()
	v, ok := inner.(term.Var)
	if !ok {
		return // LDL1.5 shapes are skipped upstream
	}
	t := rc.typeOf(v)
	if !t.MixedKinds() {
		return
	}
	sink.findings = append(sink.findings, Finding{
		Kind: FindMixedGroup, RuleIndex: i, QueryIndex: -1, Var: v,
		Message: fmt.Sprintf("grouping <%s> collects elements of mixed types (%s); the set will mix incomparable element kinds", v, t),
	})
}

// findingSink collects findings during a reporting interpretation; nil
// during fixpoint passes.
type findingSink struct {
	ruleIndex  int
	queryIndex int
	findings   []Finding
	// deadExplained: a clash or ill-typed finding already names the root
	// cause of the rule's deadness, so no generic FindDead is added.
	deadExplained bool
}

func (s *findingSink) add(kind FindingKind, l ast.Literal, msg string) {
	s.findings = append(s.findings, Finding{
		Kind: kind, RuleIndex: s.ruleIndex, QueryIndex: s.queryIndex,
		Lit: l, HasLit: true, Message: msg,
	})
}

// ruleCtx is the per-rule abstract store: variable types, refined by meets
// to a local fixpoint, plus deadness tracking.
type ruleCtx struct {
	st   *inferState
	vt   map[term.Var]Type
	dead bool
	// deadReason/deadLit describe the first literal proven unsatisfiable.
	deadReason string
	deadLit    *ast.Literal
	sink       *findingSink
}

// interpret runs the body constraints to a local fixpoint (meets only
// descend, so the loop terminates; the iteration cap is a safety net), then
// one reporting pass when sink is non-nil.
func (st *inferState) interpret(body []ast.Literal, sink *findingSink) *ruleCtx {
	cap := 2*len(body) + 4 // long =-chains propagate one hop per pass
	rc := &ruleCtx{st: st, vt: map[term.Var]Type{}}
	for iter := 0; iter < cap; iter++ {
		if !rc.pass(body) || rc.dead {
			break
		}
	}
	if sink != nil {
		rc.sink = sink
		if !rc.dead {
			rc.pass(body)
		} else {
			// Re-run one pass to let the root-cause literal report itself
			// (clash/ill-typed findings fire exactly where deadness arose).
			fresh := &ruleCtx{st: st, vt: map[term.Var]Type{}, sink: sink}
			for iter := 0; iter < cap; iter++ {
				if !fresh.pass(body) || fresh.dead {
					break
				}
			}
			rc.deadReason, rc.deadLit = fresh.deadReason, fresh.deadLit
		}
	}
	return rc
}

// pass applies every positive body constraint once, reporting whether any
// variable type narrowed.
func (rc *ruleCtx) pass(body []ast.Literal) bool {
	changed := false
	for bi := range body {
		l := body[bi]
		if l.Negated {
			continue
		}
		if rc.applyLit(l) {
			changed = true
		}
		if rc.dead {
			return changed
		}
	}
	return changed
}

// markDead records the first proof of unsatisfiability.
func (rc *ruleCtx) markDead(l ast.Literal, reason string) {
	if rc.dead {
		return
	}
	rc.dead = true
	rc.deadReason = reason
	lit := l
	rc.deadLit = &lit
}

// applyLit applies one literal's typing constraints.
func (rc *ruleCtx) applyLit(l ast.Literal) bool {
	changed := false
	// Arithmetic operands anywhere in the arguments must be integers.
	for _, a := range l.Args {
		if rc.checkArith(l, a) {
			changed = true
		}
		if rc.dead {
			return changed
		}
	}
	switch l.Pred {
	case "=":
		if len(l.Args) != 2 {
			return changed
		}
		ta, tb := rc.typeOf(l.Args[0]), rc.typeOf(l.Args[1])
		m := Meet(ta, tb)
		if m.IsBottom() && !ta.IsBottom() && !tb.IsBottom() {
			if rc.sink != nil {
				rc.sink.add(FindClash, l, fmt.Sprintf(
					"%s can never hold: left side is always %s, right side is always %s", l, ta, tb))
				rc.sink.deadExplained = true
			}
			rc.markDead(l, fmt.Sprintf("%s is a type clash (%s vs %s)", l, ta, tb))
			return changed
		}
		if rc.refine(l.Args[0], m) {
			changed = true
		}
		if rc.refine(l.Args[1], m) {
			changed = true
		}
	case "<", "<=", ">", ">=":
		if len(l.Args) != 2 {
			return changed
		}
		ta, tb := rc.typeOf(l.Args[0]), rc.typeOf(l.Args[1])
		if Disjoint(ta, tb) && rc.sink != nil {
			rc.sink.add(FindClash, l, fmt.Sprintf(
				"comparison %s has a constant result: left side is always %s, right side is always %s, so kind order alone decides", l, ta, tb))
		}
	case "/=", "true", "false":
		// /= on disjoint kinds is constantly true — a legitimate guard.
	case "member":
		if len(l.Args) != 2 {
			return changed
		}
		ts := rc.typeOf(l.Args[1])
		if !ts.IsBottom() && ts.Kinds&SetK == 0 {
			if rc.sink != nil {
				rc.sink.add(FindIllTyped, l, fmt.Sprintf(
					"member requires a set as its second argument, but %s is always %s (member is silently false on non-sets, §2.2)", l.Args[1], ts))
				rc.sink.deadExplained = true
			}
			rc.markDead(l, fmt.Sprintf("%s applies member to a non-set (%s)", l, ts))
			return changed
		}
		if rc.refine(l.Args[1], Meet(ts, OfKind(SetK))) {
			changed = true
		}
		// The element flows both ways: members come from the set's element
		// type, and the set must be able to contain the element.
		tx := rc.typeOf(l.Args[0])
		elem := Meet(tx, rc.typeOf(l.Args[1]).ElemType())
		if elem.IsBottom() && !tx.IsBottom() {
			rc.markDead(l, fmt.Sprintf("%s can never hold: %s is always %s but the set's elements are %s",
				l, l.Args[0], tx, rc.typeOf(l.Args[1]).ElemType()))
			return changed
		}
		if rc.refine(l.Args[0], elem) {
			changed = true
		}
	case "union", "partition":
		if len(l.Args) != 3 {
			return changed
		}
		for _, a := range l.Args {
			ta := rc.typeOf(a)
			if !ta.IsBottom() && ta.Kinds&SetK == 0 {
				if rc.sink != nil {
					rc.sink.add(FindIllTyped, l, fmt.Sprintf(
						"%s requires set arguments, but %s is always %s", l.Pred, a, ta))
					rc.sink.deadExplained = true
				}
				rc.markDead(l, fmt.Sprintf("%s applies %s to a non-set (%s)", l, l.Pred, ta))
				return changed
			}
			if rc.refine(a, Meet(ta, OfKind(SetK))) {
				changed = true
			}
		}
		// Element flow.  union(A, B, C): C = A ∪ B, so elem(C) =
		// elem(A) ⊔ elem(B) and A, B ⊆ C.  partition(S, S1, S2): S is the
		// disjoint union of S1 and S2 — same flow with S in the C role.
		whole, p1, p2 := 2, 0, 1
		if l.Pred == "partition" {
			whole, p1, p2 = 0, 1, 2
		}
		we := Join(rc.typeOf(l.Args[p1]).ElemType(), rc.typeOf(l.Args[p2]).ElemType())
		if rc.refine(l.Args[whole], Meet(rc.typeOf(l.Args[whole]), SetOf(we))) {
			changed = true
		}
		parts := SetOf(rc.typeOf(l.Args[whole]).ElemType())
		for _, pi := range []int{p1, p2} {
			if rc.refine(l.Args[pi], Meet(rc.typeOf(l.Args[pi]), parts)) {
				changed = true
			}
		}
	case "set":
		if len(l.Args) != 1 {
			return changed
		}
		ta := rc.typeOf(l.Args[0])
		if !ta.IsBottom() && ta.Kinds&SetK == 0 {
			if rc.sink != nil {
				rc.sink.add(FindIllTyped, l, fmt.Sprintf(
					"set requires a set argument, but %s is always %s", l.Args[0], ta))
				rc.sink.deadExplained = true
			}
			rc.markDead(l, fmt.Sprintf("%s applies set to a non-set (%s)", l, ta))
			return changed
		}
		if rc.refine(l.Args[0], Meet(ta, OfKind(SetK))) {
			changed = true
		}
	default:
		if ast.IsBuiltinPred(l.Pred) {
			return changed
		}
		sig, constrained := rc.st.sigOf(l.Pred, l.Arity())
		if !constrained {
			return changed // external/undefined: no information
		}
		if sig == nil {
			rc.markDead(l, fmt.Sprintf("%s/%d is provably empty, so %s never matches", l.Pred, l.Arity(), l))
			return changed
		}
		for i, a := range l.Args {
			ta := rc.typeOf(a)
			m := Meet(ta, sig[i])
			if m.IsBottom() && !ta.IsBottom() && !sig[i].IsBottom() {
				rc.markDead(l, fmt.Sprintf("argument %d of %s can never match %s/%d, whose column is always %s (got %s)",
					i+1, l, l.Pred, l.Arity(), sig[i], ta))
				return changed
			}
			if rc.refine(a, m) {
				changed = true
			}
		}
	}
	return changed
}

// checkArith walks t for arithmetic functors and constrains their operands
// to integers, reporting ill-typed operands.
func (rc *ruleCtx) checkArith(l ast.Literal, t term.Term) bool {
	c, ok := t.(*term.Compound)
	if !ok {
		return false
	}
	changed := false
	switch c.Functor {
	case "+", "-", "*", "/", "neg":
		for _, a := range c.Args {
			ta := rc.typeOf(a)
			if !ta.IsBottom() && ta.Kinds&Int == 0 {
				if rc.sink != nil {
					rc.sink.add(FindIllTyped, l, fmt.Sprintf(
						"arithmetic operand %s of %s is always %s, never an integer; the term falls outside U (§2.2)", a, c, ta))
					rc.sink.deadExplained = true
				}
				rc.markDead(l, fmt.Sprintf("arithmetic in %s applies to a non-integer (%s is %s)", l, a, ta))
				return changed
			}
			if rc.refine(a, Meet(ta, OfKind(Int))) {
				changed = true
			}
			if rc.checkArith(l, a) {
				changed = true
			}
			if rc.dead {
				return changed
			}
		}
	default:
		for _, a := range c.Args {
			if rc.checkArith(l, a) {
				changed = true
			}
			if rc.dead {
				return changed
			}
		}
	}
	return changed
}

// typeOf computes the abstract type of a term under the current variable
// store.
func (rc *ruleCtx) typeOf(t term.Term) Type { return rc.typeOfDepth(t, maxDepth) }

func (rc *ruleCtx) typeOfDepth(t term.Term, depth int) Type {
	switch t := t.(type) {
	case term.Var:
		if ty, ok := rc.vt[t]; ok {
			return ty
		}
		return Top()
	case term.Int:
		return Type{Kinds: Int}
	case term.Atom:
		return Type{Kinds: Atom}
	case term.Str:
		return Type{Kinds: Str}
	case *term.Set:
		return ofGround(t, depth)
	case *term.Group:
		return SetOf(rc.typeOfDepth(t.Inner, depth-1))
	case *term.Compound:
		switch t.Functor {
		case "+", "-", "*", "/", "neg":
			return Type{Kinds: Int}
		case "scons":
			if len(t.Args) != 2 || depth <= 0 {
				return Type{Kinds: SetK}
			}
			head := rc.typeOfDepth(t.Args[0], depth-1)
			tail := rc.typeOfDepth(t.Args[1], depth-1)
			return SetOf(Join(head, tail.ElemType()))
		case "$set":
			if depth <= 0 {
				return Type{Kinds: SetK}
			}
			elem := Type{}
			for _, a := range t.Args {
				elem = Join(elem, rc.typeOfDepth(a, depth-1))
			}
			if len(t.Args) == 0 {
				return Type{Kinds: SetK, Elem: &elem} // {}: element type ⊥ is exact
			}
			return SetOf(elem)
		default:
			if depth <= 0 {
				return Type{Kinds: CompK}
			}
			args := make([]Type, len(t.Args))
			for i, a := range t.Args {
				args[i] = rc.typeOfDepth(a, depth-1)
			}
			return Type{Kinds: CompK, Shape: &Shape{Functor: t.Functor, Args: args}}
		}
	}
	return Top()
}

// refine pushes a met type back into a term's variables, reporting whether
// any variable narrowed.
func (rc *ruleCtx) refine(t term.Term, m Type) bool {
	switch t := t.(type) {
	case term.Var:
		old, ok := rc.vt[t]
		if !ok {
			old = Top()
		}
		nw := Meet(old, m)
		if Equal(nw, old) {
			return false
		}
		rc.vt[t] = nw
		return true
	case *term.Group:
		return rc.refine(t.Inner, m.ElemType())
	case *term.Compound:
		switch t.Functor {
		case "+", "-", "*", "/", "neg":
			return false // operands already constrained via checkArith
		case "scons":
			if len(t.Args) != 2 || m.Kinds&SetK == 0 {
				return false
			}
			changed := rc.refine(t.Args[0], Meet(rc.typeOf(t.Args[0]), m.ElemType()))
			if rc.refine(t.Args[1], Meet(rc.typeOf(t.Args[1]), Type{Kinds: SetK, Elem: m.Elem})) {
				changed = true
			}
			return changed
		case "$set":
			if m.Kinds&SetK == 0 {
				return false
			}
			changed := false
			for _, a := range t.Args {
				if rc.refine(a, Meet(rc.typeOf(a), m.ElemType())) {
					changed = true
				}
			}
			return changed
		default:
			s := m.Shape
			if s == nil || s.Functor != t.Functor || len(s.Args) != len(t.Args) {
				return false
			}
			changed := false
			for i, a := range t.Args {
				if rc.refine(a, Meet(rc.typeOf(a), s.Args[i])) {
					changed = true
				}
			}
			return changed
		}
	}
	return false
}
