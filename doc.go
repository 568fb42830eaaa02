// Package ldl1 is a deductive database engine implementing LDL1, the logic
// database language with finite sets and stratified negation of
//
//	Beeri, Naqvi, Ramakrishnan, Shmueli, Tsur:
//	"Sets and Negation in a Logic Database Language (LDL1)", PODS 1987.
//
// The engine provides:
//
//   - the full LDL1 term universe U: constants, uninterpreted function
//     terms, and canonical finite sets closed under nesting (§2.2);
//   - set enumeration ({a,b,c}, scons) and set grouping (<X> in rule
//     heads), with the built-ins member/2, union/3, partition/3 (§1, §2);
//   - the admissibility (layering) check of §3.1 and bottom-up naive and
//     semi-naive evaluation of the standard minimal model (§3.2, Theorem 1);
//   - the LDL1.5 extensions of §4 — complex head terms and body set
//     patterns — compiled away by source rewriting, and the §3.3
//     elimination of negation through grouping;
//   - the LPS fragment of §5 with the Theorem 3 translation; and
//   - Generalized Magic Sets query compilation extended to sets and
//     negation (§6).
//
// # Quick start
//
//	eng, err := ldl1.New(`
//		ancestor(X, Y) <- parent(X, Y).
//		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
//		parent(abe, bob). parent(bob, carl).
//	`)
//	if err != nil { ... }
//	ans, err := eng.Query("ancestor(abe, W)")
//	for _, row := range ans.Rows { fmt.Println(row) }
//
// # One read path
//
// Engine.Query, Engine.Prepare with PreparedQuery.Exec, and the same two on
// an incrementally maintained view (Engine.Materialize, then
// Materialized.Query and Materialized.Prepare — which returns the same
// handle type) all answer through one snapshot reader, so they return the
// same rows for the same query: the reader solves against the engine's
// memoized model or the view's current snapshot (or, under WithMagic, runs
// the compiled magic-sets form), behind one answer cache per engine and per
// view that updates invalidate by dependency cone.  ReadOpts bounds a
// single read; WithDeadline, WithLimit and WithMemBudget bound every
// evaluation.
//
// Concrete syntax: rules are written head <- body with a terminating
// period; variables start upper-case, constants lower-case or between
// single quotes ('John Smith'), the form a ground term prints in whenever
// its name alone would read as something else; {1, 2} is an
// enumerated set, <X> a grouping argument, and not/~/¬ negate a body
// literal.  Comments run from % or # to end of line.
package ldl1
