package incr

import (
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// deltaSet is a per-predicate collection of changed facts, deduplicated.
// The per-predicate relations double as the delta relations the delta
// literals of a round's tasks read; iteration order
// (predicate first-seen order, then insertion order) is deterministic so
// parallel and sequential maintenance visit facts identically.
// Removal is lazy: remove tombstones the canonical fact and queues it, and
// the queue is flushed into the relation with one batched DeleteAll sweep
// the next time the relation is read.  The rederive loop removes thousands
// of resurrected facts one at a time; eager per-fact deletion would splice
// the relation's fact slice O(n) each and turn the loop quadratic.
type deltaSet struct {
	rels    map[string]*store.Relation
	order   []string
	removed map[*term.Fact]bool
	pending map[string][]*term.Fact
	n       int
}

func newDeltaSet() *deltaSet {
	return &deltaSet{
		rels:    map[string]*store.Relation{},
		removed: map[*term.Fact]bool{},
		pending: map[string][]*term.Fact{},
	}
}

// flush applies the queued removals for pred to its relation.
func (d *deltaSet) flush(pred string) {
	if fs := d.pending[pred]; len(fs) > 0 {
		d.rels[pred].DeleteAll(fs)
		delete(d.pending, pred)
	}
}

// rel returns the delta relation for pred, or nil if no fact of pred is in
// the set.
func (d *deltaSet) rel(pred string) *store.Relation {
	r := d.rels[pred]
	if r == nil {
		return nil
	}
	d.flush(pred)
	if r.Len() == 0 {
		return nil
	}
	return r
}

// add inserts f, reporting whether it was new.
func (d *deltaSet) add(f *term.Fact) bool {
	r := d.rels[f.Pred]
	if r == nil {
		r = store.NewRelation(f.Pred, true)
		d.rels[f.Pred] = r
		d.order = append(d.order, f.Pred)
	}
	d.flush(f.Pred)
	if r.Insert(f) {
		d.n++
		return true
	}
	return false
}

// remove deletes the fact equal to f, reporting whether it was present.
func (d *deltaSet) remove(f *term.Fact) bool {
	r := d.rels[f.Pred]
	if r == nil {
		return false
	}
	g, ok := r.Get(f)
	if !ok || d.removed[g] {
		return false
	}
	d.removed[g] = true
	d.pending[f.Pred] = append(d.pending[f.Pred], g)
	d.n--
	return true
}

func (d *deltaSet) len() int { return d.n }

// facts returns every fact in the set, in deterministic order.
func (d *deltaSet) facts() []*term.Fact {
	out := make([]*term.Fact, 0, d.n)
	for _, p := range d.order {
		d.flush(p)
		out = append(out, d.rels[p].All()...)
	}
	return out
}
