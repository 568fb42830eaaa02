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
//	for i := range ans.Len() { fmt.Println(ans.Row(i)) }
//
// # One handle
//
// An Engine is one handle on a program, its extensional database (at first
// the facts the program text gives its base predicates) and their minimal
// model, kept incrementally maintained: AddFact, AddFacts and AddDB queue
// facts for the next read, Assert, Retract and Update apply a transaction
// at once, and Materialize returns an O(1) clone that goes on
// apart (Materialized and PreparedView are other names of Engine and
// PreparedQuery).  Query, and Prepare with PreparedQuery.Exec, answer
// through one read path, so they return the same rows for the same query:
// it solves against the current snapshot of the model (or, under
// WithMagic, runs the compiled magic-sets form against the extensional
// database), behind one answer cache per handle that every write evicts by
// dependency cone.  Run is the one way to read the whole model.  ReadOpts
// bounds a single read; WithDeadline, WithLimit and WithMemBudget bound
// every evaluation.
//
// Concrete syntax: rules are written head <- body with a terminating
// period; variables start upper-case, constants lower-case or between
// single quotes ('John Smith'), the form a ground term prints in whenever
// its name alone would read as something else; {1, 2} is an
// enumerated set, <X> a grouping argument, and not/~/¬ negate a body
// literal.  Comments run from % or # to end of line.
package ldl1
