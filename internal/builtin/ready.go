package builtin

import (
	"ldl1/internal/ast"
	"ldl1/internal/term"
)

// Ready reports whether the built-in literal has at least one satisfiable
// mode given the set of currently bound variables.  The join planner uses
// this to order body literals so built-ins never flounder.  A mode's inputs
// must be bound; its outputs are matched against computed values, so they
// must bind (ast.Binds): T = {Y} is a test once Y is bound, never a
// generator of Y.
func Ready(l ast.Literal, bound func(term.Var) bool) bool {
	allBound := func(t term.Term) bool {
		for _, v := range term.VarsOf(t) {
			if !bound(v) {
				return false
			}
		}
		return true
	}
	binds := func(t term.Term) bool { return ast.Binds(bound, t) }
	if l.Negated {
		for _, a := range l.Args {
			if !allBound(a) {
				return false
			}
		}
		return true
	}
	switch l.Pred {
	case "true", "false":
		return true
	case "=":
		return len(l.Args) == 2 &&
			(allBound(l.Args[0]) && binds(l.Args[1]) || allBound(l.Args[1]) && binds(l.Args[0]))
	case "/=", "<", "<=", ">", ">=", "set":
		for _, a := range l.Args {
			if !allBound(a) {
				return false
			}
		}
		return true
	case "member":
		return len(l.Args) == 2 && allBound(l.Args[1]) && binds(l.Args[0])
	case "union":
		if len(l.Args) != 3 {
			return false
		}
		return allBound(l.Args[0]) && allBound(l.Args[1]) && binds(l.Args[2]) ||
			allBound(l.Args[2]) && binds(l.Args[0]) && binds(l.Args[1])
	case "partition":
		if len(l.Args) != 3 {
			return false
		}
		return allBound(l.Args[0]) && binds(l.Args[1]) && binds(l.Args[2]) ||
			allBound(l.Args[1]) && allBound(l.Args[2]) && binds(l.Args[0])
	}
	return false
}
