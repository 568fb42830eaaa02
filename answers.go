package ldl1

import (
	"sort"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/lderr"
	"ldl1/internal/term"
)

// Answers holds the solutions of a query: one row per answer, with columns
// in Vars order (first occurrence in the query).
type Answers struct {
	// Vars are the query's variable names in first-occurrence order.
	Vars []string
	// Rows holds one term per variable per solution, sorted
	// deterministically.
	Rows [][]Term
}

// bodyVars lists a query body's variables in first-occurrence order.
func bodyVars(body []ast.Literal) []term.Var {
	seen := map[term.Var]bool{}
	var vars []term.Var
	for _, l := range body {
		for _, v := range l.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// newAnswers tabulates sols, the solutions of the body solved, under the
// variable names of the caller's body.  solved is body itself or its
// positional form (see reader.read), so the two bodies' variables
// correspond one to one in first-occurrence order.  A positive maxRows
// that sols exceeds is a *lderr.LimitError, however sols was come by.
func newAnswers(body, solved []ast.Literal, sols []map[term.Var]term.Term, maxRows int) (*Answers, error) {
	if maxRows > 0 && len(sols) > maxRows {
		return nil, &lderr.LimitError{Limit: maxRows}
	}
	names, vars := bodyVars(body), bodyVars(solved)
	a := &Answers{Vars: make([]string, len(names))}
	for i, v := range names {
		a.Vars[i] = string(v)
	}
	for _, sol := range sols {
		row := make([]Term, len(vars))
		for i, v := range vars {
			row[i] = sol[v]
		}
		a.Rows = append(a.Rows, row)
	}
	sort.Slice(a.Rows, func(i, j int) bool {
		for k := range a.Rows[i] {
			x, y := a.Rows[i][k], a.Rows[j][k]
			if x == nil || y == nil {
				continue
			}
			if c := term.Compare(x, y); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return a, nil
}

// Len returns the number of answers.
func (a *Answers) Len() int { return len(a.Rows) }

// Empty reports whether the query failed (no answers).
func (a *Answers) Empty() bool { return len(a.Rows) == 0 }

// String renders the answers as a small table.
func (a *Answers) String() string {
	if a.Empty() {
		return "no"
	}
	var b strings.Builder
	for _, row := range a.Rows {
		parts := make([]string, 0, len(row))
		for i, t := range row {
			if t == nil {
				continue
			}
			parts = append(parts, a.Vars[i]+" = "+t.String())
		}
		if len(parts) == 0 {
			b.WriteString("yes")
		} else {
			b.WriteString(strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
