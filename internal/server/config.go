// Package server implements ldl1d, the deductive-database server: an
// HTTP/JSON service holding named materialized programs.  Reads execute
// lock-free against the current published model snapshot of each
// database's incrementally maintained view, so any number of clients
// query concurrently without blocking each other or writers; writes
// serialize through the incremental-maintenance path and publish the next
// model atomically, so a reader never observes a half-applied
// transaction.  Every request carries a deadline, row limit, and memory
// budget — server-wide defaults, per-request overrides, hard ceilings —
// and every failure maps to a typed JSON error with a stable code.
//
// The package is the handler/registry layer; cmd/ldl1d wires it to an
// http.Server, signals, and flags.
package server

import (
	"math"
	"time"
)

// Limits bounds one request: a wall-clock deadline, a cap on answer rows,
// and an approximate byte budget for retained solution bindings.  A zero
// field means "no bound at this level".
type Limits struct {
	// Deadline bounds the wall-clock time of one read or write.
	Deadline time.Duration
	// MaxRows bounds the distinct answer rows of one read; a breach fails
	// the request with code limit_error rather than truncating silently.
	MaxRows int
	// MemBudget bounds the approximate bytes retained by one read's
	// solution bindings; a breach fails with code mem_budget_error.
	MemBudget int64
}

// Config configures a Server.
type Config struct {
	// Defaults apply to requests that do not override a bound.
	Defaults Limits
	// Max are hard ceilings: a per-request override is clamped to them,
	// so a client cannot opt out of the operator's resource policy.  Zero
	// fields impose no ceiling.
	Max Limits
	// MaxDerivedPerTx bounds the facts any single write transaction may
	// derive (ldl1.WithLimit on each database's engine); a breaching
	// transaction rolls back and fails with code limit_error.
	MaxDerivedPerTx int
	// Workers is the evaluation worker count for materialization and
	// write transactions (0 = sequential).
	Workers int
	// AllowAdmin enables the mutating admin endpoints: loading and
	// dropping databases and defining named prepared queries over HTTP.
	// Boot-time loading through Server.Load works regardless.
	AllowAdmin bool
	// StrictVet makes program admission reject any static-analysis
	// diagnostic, warnings included; by default only error-severity
	// diagnostics (unsafe rules, floundering bodies, ...) reject.
	StrictVet bool
}

// maxDeadlineMS is the largest deadline_ms a time.Duration holds; a larger
// one saturates to it rather than wrapping negative (no deadline) or small.
const maxDeadlineMS = int64(math.MaxInt64 / time.Millisecond)

// effective resolves one request's bounds: overrides replace defaults,
// then ceilings clamp the result.
func (c *Config) effective(deadlineMS int64, maxRows int, memBudget int64) Limits {
	out := c.Defaults
	if deadlineMS > 0 {
		out.Deadline = time.Duration(min(deadlineMS, maxDeadlineMS)) * time.Millisecond
	}
	if maxRows > 0 {
		out.MaxRows = maxRows
	}
	if memBudget > 0 {
		out.MemBudget = memBudget
	}
	if c.Max.Deadline > 0 && (out.Deadline <= 0 || out.Deadline > c.Max.Deadline) {
		out.Deadline = c.Max.Deadline
	}
	if c.Max.MaxRows > 0 && (out.MaxRows <= 0 || out.MaxRows > c.Max.MaxRows) {
		out.MaxRows = c.Max.MaxRows
	}
	if c.Max.MemBudget > 0 && (out.MemBudget <= 0 || out.MemBudget > c.Max.MemBudget) {
		out.MemBudget = c.Max.MemBudget
	}
	return out
}
