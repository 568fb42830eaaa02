package ldl1

import (
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/lderr"
)

// Answers holds the solutions of a query: one row per answer, with columns
// in Vars order (first occurrence in the query).  The rows are read in
// place (Len, Row): they are shared with the answer cache and must not be
// written to.
type Answers struct {
	// Vars are the query's named variables in first-occurrence order; an
	// anonymous variable ("_") is never a column.
	Vars []string
	// t holds the rows, sorted by column in Compare order, an unbound (nil)
	// column first.
	t eval.Table
}

// newAnswers names the columns of t, the answer table of the caller's body
// or of another spelling of it that shares its cache entry (see
// Engine.read): both have the same columns in the same order.  The answers
// read t's cells in place.  A positive maxRows that t exceeds is a
// *lderr.LimitError, however t was come by.
func newAnswers(body []ast.Literal, t eval.Table, maxRows int) (*Answers, error) {
	if maxRows > 0 && t.N > maxRows {
		return nil, &lderr.LimitError{Limit: maxRows}
	}
	cols := eval.Columns(body)
	a := &Answers{Vars: make([]string, len(cols)), t: t}
	for i, v := range cols {
		a.Vars[i] = string(v)
	}
	return a, nil
}

// Len returns the number of answers.
func (a *Answers) Len() int { return a.t.N }

// Row returns answer i, 0 ≤ i < Len(): one term per variable, nil where no
// positive literal binds it.  The row is shared and must not be written to.
func (a *Answers) Row(i int) []Term { return a.t.Row(i) }

// Rows returns the answers as a slice of rows of the caller's own; the rows
// themselves are shared, as Row's are.
func (a *Answers) Rows() [][]Term { return a.t.Rows() }

// Empty reports whether the query failed (no answers).
func (a *Answers) Empty() bool { return a.t.N == 0 }

// String renders the answers as a small table.
func (a *Answers) String() string {
	if a.Empty() {
		return "no"
	}
	var b strings.Builder
	for i := range a.Len() {
		row := a.Row(i)
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
