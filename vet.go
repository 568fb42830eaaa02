package ldl1

import (
	"fmt"

	"ldl1/internal/analyze"
)

// Diagnostic is one static-analysis finding: a stable LDL0xx code, a
// severity, a 1-based source position, and a message, possibly with
// related positions (e.g. the rules inducing each edge of a
// non-admissibility witness cycle).  It marshals cleanly through
// encoding/json; see the `ldl1 vet -json` output.
type Diagnostic = analyze.Diagnostic

// Severity grades a Diagnostic.
type Severity = analyze.Severity

// Diagnostic severities.
const (
	// SeverityError marks conditions the engine rejects or mis-executes:
	// unsafe rules, inadmissible programs, floundering bodies, parse errors.
	SeverityError = analyze.Error
	// SeverityWarning marks legal but suspicious programs: singleton
	// variables, cartesian joins, possible non-termination, §2.3 grouping
	// pitfalls.
	SeverityWarning = analyze.Warning
)

// Vet statically analyzes LDL1 source text — rules, facts, and queries —
// without building an engine, returning every diagnostic in source order.
// Source that does not parse yields a single LDL000 diagnostic rather
// than an error.
func Vet(src string) []Diagnostic {
	return analyze.Source(src, analyze.Options{})
}

// Vet statically analyzes the engine's program as written (before the
// LDL1.5 expansion).  Predicates present in the extensional database count
// as defined, so facts added after New do not show up as undefined
// predicates.  Each call runs the analyzer afresh against the current
// predicate set; the caller owns the returned slice.
func (e *Engine) Vet() []Diagnostic {
	e.mu.RLock()
	known := e.knownPreds()
	e.mu.RUnlock()
	return analyze.Program(e.original, nil, analyze.Options{KnownPreds: known})
}

// VetError is returned by New/NewFromAST under WithStrict when the program
// has any diagnostic, error or warning.
type VetError struct {
	Diagnostics []Diagnostic
}

func (e *VetError) Error() string {
	if len(e.Diagnostics) == 1 {
		return fmt.Sprintf("vet: %s", e.Diagnostics[0])
	}
	return fmt.Sprintf("vet: %d diagnostics, first: %s", len(e.Diagnostics), e.Diagnostics[0])
}

// WithStrict makes New and NewFromAST fail with *VetError if the static
// analyzer reports anything at all — including warnings that the engine
// would happily evaluate.  The well-formedness and admissibility checks
// still run first and keep their usual error types; strict mode only adds
// the analyzer's stricter judgment on top.
func WithStrict() Option { return func(c *config) { c.strict = true } }
