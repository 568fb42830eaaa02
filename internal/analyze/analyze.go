// Package analyze is a multi-pass static analyzer for LDL1 programs: it
// diagnoses, before evaluation, the compile-time conditions the paper
// states as semantic prerequisites — safety of rules and built-ins (§2.2,
// §7), admissibility of the grouping/negation layering (§3.1), the
// grouping pitfalls of §2.3 — plus operational hazards (floundering
// built-ins, cartesian joins, non-terminating recursion over function
// symbols) and plain mistakes (singleton variables, arity conflicts,
// undefined or unreachable predicates).
//
// Every diagnostic carries a stable LDL0xx code, a severity, and a source
// position threaded from the lexer through the parser, so tools can point
// at the offending rule, literal, or variable occurrence.  The analyzer
// never mutates its input and never evaluates the program.
package analyze

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/term"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// Error: the engine will reject or mis-execute the program.
	Error Severity = iota
	// Warning: legal but suspicious; likely a mistake or a hazard.
	Warning
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its string form, so the -json output
// is self-describing and round-trips.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses "error" or "warning".
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = Error
	case `"warning"`:
		*s = Warning
	default:
		return fmt.Errorf("analyze: unknown severity %s", b)
	}
	return nil
}

// Diagnostic codes.  Codes are stable across releases: new checks get new
// codes, retired checks leave gaps.
const (
	CodeSyntax      = "LDL000" // source text does not lex/parse
	CodeUnsafeHead  = "LDL001" // head variable not limited by the body
	CodeUnsafeNeg   = "LDL002" // negated-literal variable not limited
	CodeUnsafeGroup = "LDL003" // grouped head variable not limited
	CodeFactVars    = "LDL004" // fact contains variables
	CodeShape       = "LDL005" // malformed or inexpressible grouping shape
	CodeNotAdmiss   = "LDL006" // grouping/negation dependency cycle (§3.1)
	CodeFlounder    = "LDL007" // body cannot be ordered; built-in would flounder
	CodeUnreachable = "LDL101" // rule-defined predicate unreachable from queries
	CodeUndefined   = "LDL102" // predicate has no rules and no facts
	CodeArity       = "LDL103" // predicate used with conflicting arities
	CodeSingleton   = "LDL104" // variable occurs exactly once in a rule
	CodeGroupFree   = "LDL105" // grouped variable also free in the head (§2.3)
	CodeSetPattern  = "LDL106" // body set pattern can never bind its variables
	CodeNonTerm     = "LDL107" // function symbols feed a recursive SCC
	CodeCartesian   = "LDL108" // join step with no bound argument columns
	CodeTypeClash   = "LDL200" // unification/comparison of disjoint types
	CodeIllTyped    = "LDL201" // built-in applied to a statically ill-typed argument
	CodeDead        = "LDL202" // rule or query provably derives nothing (⊥ propagation)
	CodeMixedGroup  = "LDL203" // grouping collects elements of provably mixed kinds
)

// CodeInfo describes one diagnostic code for documentation and tooling.
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

var codeTable = []CodeInfo{
	{CodeSyntax, Error, "source text does not lex or parse"},
	{CodeUnsafeHead, Error, "head variable is not limited by the rule body (§2.2, §7)"},
	{CodeUnsafeNeg, Error, "variable of a negated literal is not limited (§2.2, §7)"},
	{CodeUnsafeGroup, Error, "grouped head variable is not limited (§2.2, §7)"},
	{CodeFactVars, Error, "facts may not contain variables (§7)"},
	{CodeShape, Error, "malformed grouping shape or inexpressible LDL1.5 construct (§2.1, §4)"},
	{CodeNotAdmiss, Error, "program is not admissible: dependency cycle through grouping or negation (§3.1)"},
	{CodeFlounder, Error, "rule body cannot be ordered so built-ins and negated literals become ground (§2.2)"},
	{CodeUnreachable, Warning, "rule-defined predicate is unreachable from the unit's queries"},
	{CodeUndefined, Warning, "predicate has no rules and no facts (possible typo)"},
	{CodeArity, Warning, "predicate is used with conflicting arities"},
	{CodeSingleton, Warning, "variable occurs only once in the rule (use _ if intentional)"},
	{CodeGroupFree, Warning, "grouped variable also occurs free in the head (§2.3 pitfall)"},
	{CodeSetPattern, Warning, "enumerated set pattern in a body literal cannot bind its variables"},
	{CodeNonTerm, Warning, "function symbols feed a recursive predicate; bottom-up evaluation may not terminate"},
	{CodeCartesian, Warning, "join step executes with no bound argument columns (cartesian product)"},
	{CodeTypeClash, Error, "unification or comparison of statically disjoint types can never hold"},
	{CodeIllTyped, Error, "built-in applied to an argument of a statically impossible type"},
	{CodeDead, Warning, "rule or query provably derives nothing (empty predicate or unsatisfiable literal)"},
	{CodeMixedGroup, Warning, "grouping collects elements of provably mixed kinds"},
}

// severityOf maps a code to its severity.
func severityOf(code string) Severity {
	for _, ci := range codeTable {
		if ci.Code == code {
			return ci.Severity
		}
	}
	return Warning
}

// Related points a diagnostic at an additional source location, e.g. the
// rules inducing each edge of a witness cycle.
type Related struct {
	Pos     ast.Pos `json:"pos"`
	Message string  `json:"message"`
}

// Diagnostic is one analyzer finding.  Pos is 1-based line/column into the
// analyzed source ({0,0} when the construct was synthesized in Go code).
type Diagnostic struct {
	Code     string    `json:"code"`
	Severity Severity  `json:"severity"`
	File     string    `json:"file,omitempty"`
	Pos      ast.Pos   `json:"pos"`
	Pred     string    `json:"pred,omitempty"`
	Rule     string    `json:"rule,omitempty"`
	Message  string    `json:"message"`
	Related  []Related `json:"related,omitempty"`
}

// String renders the gopls-style one-line form
// "file:line:col: severity: message [code]".
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteByte(':')
	}
	b.WriteString(d.Pos.String())
	b.WriteString(": ")
	b.WriteString(d.Severity.String())
	b.WriteString(": ")
	b.WriteString(d.Message)
	b.WriteString(" [")
	b.WriteString(d.Code)
	b.WriteByte(']')
	return b.String()
}

// Options configures an analysis.
type Options struct {
	// File is recorded on every diagnostic (and shown in text output).
	File string
	// KnownPreds names predicates to treat as defined even though the
	// unit has no rules or facts for them — e.g. the predicates of an
	// engine's extensional database, or data loaded at run time.
	KnownPreds map[string]bool
	// LineOffset shifts every reported line by this amount; used when the
	// analyzed source is embedded in a larger file (LDL text inside a Go
	// raw string literal).
	LineOffset int
}

// Source parses and analyzes LDL1 source text.  Text that does not parse
// yields a single LDL000 diagnostic carrying the parse position; analysis
// always returns normally.
func Source(src string, opts Options) []Diagnostic {
	unit, err := parser.Parse(src)
	if err != nil {
		var pe *lderr.ParseError
		d := Diagnostic{
			Code:     CodeSyntax,
			Severity: Error,
			File:     opts.File,
			Message:  err.Error(),
		}
		if errors.As(err, &pe) {
			d.Pos = ast.Pos{Line: pe.Line, Col: pe.Col}
			d.Message = pe.Msg
		}
		return finish([]Diagnostic{d}, opts)
	}
	return Unit(unit, opts)
}

// Unit analyzes a parsed source unit (program plus queries).
func Unit(u *parser.Unit, opts Options) []Diagnostic {
	return Program(u.Program, u.Queries, opts)
}

// Program runs every analysis pass over the program (as written, before
// any LDL1.5 rewrite) and its queries, returning diagnostics sorted by
// position then code.
func Program(p *ast.Program, queries []parser.Query, opts Options) []Diagnostic {
	a := &analysis{p: p, queries: queries, opts: opts}
	a.safetyPass()
	a.shapePass()
	a.groupMisusePass()
	a.singletonPass()
	a.setPatternPass()
	a.admissibilityPass()
	a.modesPass()
	a.predicatePass()
	a.nonTerminationPass()
	a.typesPass()
	return finish(a.diags, opts)
}

// analysis threads shared state between passes.
type analysis struct {
	p       *ast.Program
	queries []parser.Query
	opts    Options
	diags   []Diagnostic

	// unsafe[i] marks rules with safety or shape errors; later passes skip
	// them to avoid piling secondary diagnostics on one root cause.
	unsafe map[int]bool
	// unsafeVar records (rule index, variable) pairs already reported, so
	// the singleton pass does not re-flag an unsafe variable.
	unsafeVar map[string]bool
	// needsRW[i] marks LDL1.5 rules (complex head terms or body set
	// patterns); the plan-based passes skip them because the engine
	// evaluates their rewritten form, not the source body.
	needsRW map[int]bool
	// notAdmissible marks a failed stratification; the types pass skips the
	// whole program then — fixpoint layering is what gives the inference
	// its meaning, and the LDL006 error is the root cause to fix first.
	notAdmissible bool
	// typeEnv is the inferred type environment of the types pass, kept for
	// callers that want signatures alongside diagnostics.
	typeEnv *types.Env
}

func (a *analysis) add(d Diagnostic) {
	d.Severity = severityOf(d.Code)
	d.File = a.opts.File
	a.diags = append(a.diags, d)
}

// rulePos resolves the best position for a diagnostic about rule r: the
// variable's first occurrence if given, else the literal, else the rule.
func rulePos(r ast.Rule, l *ast.Literal, v term.Var) ast.Pos {
	if v != "" && r.VarPos != nil {
		if p, ok := r.VarPos[v]; ok && p.Known() {
			return p
		}
	}
	if l != nil && l.Pos.Known() {
		return l.Pos
	}
	return r.Pos
}

// finish sorts, deduplicates, and applies the line offset.
func finish(ds []Diagnostic, opts Options) []Diagnostic {
	if opts.LineOffset != 0 {
		for i := range ds {
			if ds[i].Pos.Known() {
				ds[i].Pos.Line += opts.LineOffset
			}
			for j := range ds[i].Related {
				if ds[i].Related[j].Pos.Known() {
					ds[i].Related[j].Pos.Line += opts.LineOffset
				}
			}
		}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos.Before(ds[j].Pos)
		}
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Message < ds[j].Message
	})
	out := ds[:0]
	var last Diagnostic
	for i, d := range ds {
		if i > 0 && d.Code == last.Code && d.Pos == last.Pos && d.Message == last.Message {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out
}
