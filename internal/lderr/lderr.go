// Package lderr defines the typed error taxonomy of the engine: the
// errors a caller of the public Engine API (or the CLIs
// built on them) can receive and is expected to branch on.  Callers use
// errors.As for the structured kinds and errors.Is for the sentinels
// instead of string-matching:
//
//	ParseError          malformed source, with line/column position
//	LimitError          evaluation exceeded the derived-fact budget
//	MemBudgetError      evaluation exceeded the derived-term byte budget
//	InstantiationError  a built-in was called with too few bound arguments
//	ArgError            a prepared handle was executed with bad arguments,
//	                    or a transaction retracts a fact of the program
//	Canceled            a context passed to a ...Ctx API was canceled
//	DeadlineExceeded    a context deadline (or WithDeadline) expired
//
// Canceled and DeadlineExceeded unwrap to context.Canceled and
// context.DeadlineExceeded respectively, so errors.Is works against either
// vocabulary.  The package has no dependencies beyond the standard library;
// every layer of the engine may import it.
package lderr

import (
	"context"
	"errors"
	"fmt"
)

// ParseError is a source-text parse error with position information.
// (internal/parser.Error is an alias of this type.)
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// LimitError reports that evaluation exceeded the configured derived-fact
// budget (eval.Options.MaxDerived / ldl1.WithLimit), the termination guard
// for programs whose function symbols generate unbounded terms (the LDL1
// universe U is infinite, §2.2).  For incremental maintenance the budget
// applies per transaction and the transaction rolls back on breach.
type LimitError struct {
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("eval: derivation limit of %d facts exceeded; the program may not terminate bottom-up", e.Limit)
}

// MemBudgetError reports that evaluation exceeded the configured budget of
// approximate bytes retained by derived facts (ldl1.WithMemBudget).
type MemBudgetError struct {
	Budget int64
}

func (e *MemBudgetError) Error() string {
	return fmt.Sprintf("eval: derived facts exceed the memory budget of %d bytes; the program may not terminate bottom-up", e.Budget)
}

// ErrInstantiation is the sentinel all InstantiationErrors unwrap to;
// errors.Is(err, ErrInstantiation) matches any of them.
var ErrInstantiation = errors.New("insufficiently instantiated built-in call")

// InstantiationError reports a built-in literal invoked with too few bound
// arguments for any of its modes — the safety condition of §2.2 (e.g.
// union(X, Y, Z) with all three arguments free enumerates an infinite
// relation and is rejected instead of silently yielding nothing).
type InstantiationError struct {
	// Builtin is the predicate name, e.g. "member" or "union".
	Builtin string
	// Literal is the offending literal as written, e.g. "union(X, Y, Z)".
	Literal string
}

func (e *InstantiationError) Error() string {
	return fmt.Sprintf("builtin %s: %v: %s", e.Builtin, ErrInstantiation, e.Literal)
}

// Unwrap makes errors.Is(err, ErrInstantiation) hold.
func (e *InstantiationError) Unwrap() error { return ErrInstantiation }

// ArgError reports a prepared handle executed with the wrong number of
// arguments or a non-ground one, or a transaction retracting a fact the
// program text gives a derived predicate: a caller mistake found before
// anything is evaluated (the server answers it 400 bad_request).
type ArgError struct {
	Msg string
}

func (e *ArgError) Error() string { return "ldl1: " + e.Msg }

// ContextError is the concrete type behind the Canceled and
// DeadlineExceeded sentinels.  It unwraps to the corresponding context
// package error.
type ContextError struct {
	cause error
	msg   string
}

func (e *ContextError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, context.Canceled) (resp.
// context.DeadlineExceeded) hold alongside the lderr sentinel.
func (e *ContextError) Unwrap() error { return e.cause }

// Canceled and DeadlineExceeded are returned by the ...Ctx APIs when the
// context is canceled or its deadline expires mid-evaluation.  The engine
// guarantees the abort is clean: the input database, the store, and any
// published materialized model are unchanged.
var (
	Canceled         = &ContextError{cause: context.Canceled, msg: "evaluation canceled"}
	DeadlineExceeded = &ContextError{cause: context.DeadlineExceeded, msg: "evaluation deadline exceeded"}
)

// FromContext maps a context's error to the taxonomy: nil while the
// context is live, DeadlineExceeded after its deadline, Canceled otherwise.
func FromContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return DeadlineExceeded
	default:
		return Canceled
	}
}
