package rewrite

import (
	"ldl1/internal/ast"
	"ldl1/internal/term"
)

// Rewrite compiles a full LDL1.5 program into plain LDL1: first the body
// set patterns of §4.1, then the complex head terms of §4.2.  The result,
// evaluated bottom-up and restricted to the input program's predicates,
// yields the same standard model.
func Rewrite(p *ast.Program) (*ast.Program, error) {
	return RewriteWithSemantics(p, StandardSemantics)
}

// RewriteWithSemantics is Rewrite with an explicit choice between the §4.2
// head-term semantics (ii) and the alternative (ii)'.
func RewriteWithSemantics(p *ast.Program, sem HeadSemantics) (*ast.Program, error) {
	p1, err := RewriteBodyPatterns(p)
	if err != nil {
		return nil, err
	}
	return RewriteHeadsWithSemantics(p1, sem)
}

// NeedsRewrite reports whether the program uses any LDL1.5 construct
// (complex head terms or body set patterns).
func NeedsRewrite(p *ast.Program) bool {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.HasGroup() {
				return true
			}
		}
		groupArgs := 0
		for _, a := range r.Head.Args {
			if isComplexHeadArg(a) {
				return true
			}
			if term.ContainsGroup(a) {
				groupArgs++
			}
		}
		// Two core groupings in one head require Distribution (§4.2).
		if groupArgs >= 2 {
			return true
		}
	}
	return false
}
