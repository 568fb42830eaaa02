package store

import "ldl1/internal/term"

// FactSet is a hash-keyed set of U-facts: the map[string]bool replacement
// for hot-path membership tracking (a transaction's normalized updates,
// grouping premises, provenance walks, the frontier's debug check).  It is
// backed by the same open-addressed table as Relation; collisions are
// resolved by the structural term.EqualFacts, so membership is exact.
//
// The zero value is not ready; use NewFactSet.  Not safe for concurrent
// mutation.
type FactSet struct {
	t *factTable
}

// NewFactSet creates an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{t: newFactTable(0)}
}

// Len returns the number of distinct facts in the set.
func (s *FactSet) Len() int { return s.t.n }

// Contains reports whether the set holds a fact equal to f.
func (s *FactSet) Contains(f *term.Fact) bool {
	return get(s.t, hashFact(f), f) != nil
}

// Add inserts f, reporting whether it was new.
func (s *FactSet) Add(f *term.Fact) bool {
	h := hashFact(f)
	if get(s.t, h, f) != nil {
		return false
	}
	s.t.insert(h, f, hashFact)
	return true
}
