package ldl1

import (
	"slices"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/lderr"
	"ldl1/internal/term"
)

// Answers holds the solutions of a query: one row per answer, with columns
// in Vars order (first occurrence in the query).
type Answers struct {
	// Vars are the query's named variables in first-occurrence order; an
	// anonymous variable ("_") is never a column.
	Vars []string
	// Rows holds one term per variable per solution, sorted by column in
	// Compare order, an unbound (nil) column first.  The rows are shared
	// with the answer cache and must not be written to; the outer slice is
	// the caller's own.
	Rows [][]Term
}

// newAnswers names the columns of rows, the answer table of the caller's
// body or of another spelling of it that shares its cache entry (see
// Engine.read): both have the same columns in the same order.  A positive maxRows that rows
// exceeds is a *lderr.LimitError, however rows was come by.
func newAnswers(body []ast.Literal, rows [][]term.Term, maxRows int) (*Answers, error) {
	if maxRows > 0 && len(rows) > maxRows {
		return nil, &lderr.LimitError{Limit: maxRows}
	}
	cols := eval.Columns(body)
	a := &Answers{Vars: make([]string, len(cols)), Rows: slices.Clone(rows)}
	for i, v := range cols {
		a.Vars[i] = string(v)
	}
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
