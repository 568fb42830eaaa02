// Package workload holds the generators for TestWorkCounts and the oracle
// tests: the synthetic databases they evaluate.  The paper evaluates no
// concrete datasets (it is a semantics paper), so these generators supply
// the family of inputs its examples assume: parent chains and trees for
// ancestor/same-generation, supplier catalogs for grouping, bill-of-material
// DAGs for the part-cost program, and book catalogs for set enumeration.
package workload

import (
	"fmt"
	"math/rand"

	"ldl1/internal/store"
	"ldl1/internal/term"
)

// person names node i deterministically.
func person(i int) term.Atom { return term.Atom(fmt.Sprintf("n%d", i)) }

// ParentChain returns a parent relation forming a chain n0 -> n1 -> ... ->
// n_{n}.
func ParentChain(n int) *store.DB {
	db := store.NewDB()
	for i := 0; i < n; i++ {
		db.Insert(term.NewFact("parent", person(i), person(i+1)))
	}
	return db
}

// ParentTree returns a complete binary tree of the given depth rooted at
// n1 (heap numbering: children of i are 2i and 2i+1).
func ParentTree(depth int) *store.DB {
	db := store.NewDB()
	last := 1 << depth
	for i := 1; i < last; i++ {
		db.Insert(term.NewFact("parent", person(i), person(2*i)))
		db.Insert(term.NewFact("parent", person(i), person(2*i+1)))
	}
	return db
}

// RandomDAG returns a parent relation forming a random DAG on n nodes with
// roughly edgesPerNode outgoing edges per node, all pointing forward so the
// graph is acyclic.
func RandomDAG(n, edgesPerNode int, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for i := 0; i < n-1; i++ {
		for k := 0; k < edgesPerNode; k++ {
			j := i + 1 + r.Intn(n-i-1)
			db.Insert(term.NewFact("parent", person(i), person(j)))
		}
	}
	return db
}

// Persons adds a person(n_i) fact for every node index in [0, n].
func Persons(db *store.DB, n int) *store.DB {
	for i := 0; i <= n; i++ {
		db.Insert(term.NewFact("person", person(i)))
	}
	return db
}

// SupplierParts returns an sp(Supplier, Part) relation where each of the
// suppliers offers partsPer parts drawn from a shared pool (so parts
// overlap across suppliers).
func SupplierParts(suppliers, partsPer int, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	pool := suppliers * partsPer / 2
	if pool < 1 {
		pool = 1
	}
	db := store.NewDB()
	for s := 0; s < suppliers; s++ {
		for k := 0; k < partsPer; k++ {
			p := r.Intn(pool)
			db.Insert(term.NewFact("sp",
				term.Atom(fmt.Sprintf("s%d", s)),
				term.Atom(fmt.Sprintf("p%d", p))))
		}
	}
	return db
}

// Books returns a book(Title, Price) relation with n titles priced 5..60.
func Books(n int, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for i := 0; i < n; i++ {
		price := 5 + r.Intn(56)
		db.Insert(term.NewFact("book",
			term.Atom(fmt.Sprintf("b%d", i)), term.Int(int64(price))))
	}
	return db
}

// BOM returns the p (part, immediate subpart) and q (elementary part,
// cost) relations of the §1 part-cost example: a tree of aggregate parts
// with the given fanout and depth whose leaves are elementary parts.
// Total part count is (fanout^(depth+1)-1)/(fanout-1); keep it small — the
// tc program derives a tc tuple for every disjoint union of part sets.
func BOM(depth, fanout int) *store.DB {
	db := store.NewDB()
	id := 1
	type node struct{ id, depth int }
	queue := []node{{1, 0}}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		if nd.depth == depth {
			// Elementary part: cost by id for determinism.
			db.Insert(term.NewFact("q", term.Int(int64(nd.id)), term.Int(int64(10+nd.id))))
			continue
		}
		for k := 0; k < fanout; k++ {
			id++
			db.Insert(term.NewFact("p", term.Int(int64(nd.id)), term.Int(int64(id))))
			queue = append(queue, node{id, nd.depth + 1})
		}
	}
	return db
}

// FamilyForest returns p (parent) and siblings relations for the §6 young
// example: families forming complete binary trees of the given depth,
// replicated count times, with sibling links between tree roots' children.
// Leaves have no descendants, so they are "young".
func FamilyForest(count, depth int) *store.DB {
	db := store.NewDB()
	base := 0
	for c := 0; c < count; c++ {
		last := 1 << depth
		for i := 1; i < last; i++ {
			db.Insert(term.NewFact("p", person(base+i), person(base+2*i)))
			db.Insert(term.NewFact("p", person(base+i), person(base+2*i+1)))
		}
		// The root's two children are siblings.
		db.Insert(term.NewFact("siblings", person(base+2), person(base+3)))
		db.Insert(term.NewFact("siblings", person(base+3), person(base+2)))
		base += 1 << (depth + 1)
	}
	return db
}

// Graph returns an edge relation e(X, Y): a random directed graph on n
// nodes with roughly edgesPerNode outgoing edges per node (no self-loops).
// Used by the triangle join row, whose third body literal probes the
// relation on two bound columns at once.
func Graph(n, edgesPerNode int, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for i := 0; i < n; i++ {
		for k := 0; k < edgesPerNode; k++ {
			j := r.Intn(n)
			if j == i {
				j = (j + 1) % n
			}
			db.Insert(term.NewFact("e", person(i), person(j)))
		}
	}
	return db
}

// WideSelective returns a wide EDB for the selective-join rows:
// wide(G, T, P, W) with n rows whose first column takes only `groups`
// distinct values and whose (G, T) pair is selective, plus dim(G, T)
// probe rows covering each group once.  A single-column index on G is
// nearly useless here (n/groups rows per value); the composite (G, T)
// index is what makes the join cheap.
func WideSelective(n, groups, tags int, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	db := store.NewDB()
	for i := 0; i < n; i++ {
		g := r.Intn(groups)
		t := r.Intn(tags)
		db.Insert(term.NewFact("wide",
			term.Atom(fmt.Sprintf("g%d", g)),
			term.Atom(fmt.Sprintf("t%d", t)),
			term.Atom(fmt.Sprintf("p%d", i)),
			term.Int(int64(i%7))))
	}
	for g := 0; g < groups; g++ {
		db.Insert(term.NewFact("dim",
			term.Atom(fmt.Sprintf("g%d", g)),
			term.Atom(fmt.Sprintf("t%d", g%tags))))
	}
	return db
}

// Update is one transaction of an update-stream workload: facts to insert
// into and retract from the EDB.  The incremental-maintenance rows
// replay a stream of Updates against a materialized view and against
// from-scratch recomputation.
type Update struct {
	Insert  []*term.Fact
	Retract []*term.Fact
}

// TrickleInserts (u1) returns a parent chain of the given length plus a
// stream of single-insert transactions, each extending the chain by one
// edge — the pure-insertion workload where semi-naive delta propagation
// shines against recomputation.
func TrickleInserts(chain, txCount int) (*store.DB, []Update) {
	db := ParentChain(chain)
	txs := make([]Update, txCount)
	for t := range txs {
		i := chain + t
		txs[t] = Update{Insert: []*term.Fact{
			term.NewFact("parent", person(i), person(i+1)),
		}}
	}
	return db, txs
}

// MixedUpdates (u2) returns a parent chain carrying a layer of random
// forward shortcut edges, plus a stream of transactions that each insert
// one fresh shortcut and retract one live shortcut, exercising insertion
// propagation and delete-and-rederive together.  The chain backbone is
// never retracted: shortcut edges always point forward (i < j, acyclic)
// and pairs broken by a shortcut deletion stay derivable via the chain,
// so the workload measures the bounded-impact steady state rather than
// DRed's worst case (cutting the backbone invalidates a quadratic slice
// of the closure, where recomputation is the right tool anyway).
func MixedUpdates(chain, txCount int, seed int64) (*store.DB, []Update) {
	r := rand.New(rand.NewSource(seed))
	db := ParentChain(chain)
	shortcut := func() *term.Fact {
		i := r.Intn(chain - 1)
		j := i + 1 + r.Intn(chain-i-1)
		return term.NewFact("parent", person(i), person(j))
	}
	live := make([]*term.Fact, 0, chain/4+txCount)
	for k := 0; k < chain/4; k++ {
		f := shortcut()
		if db.Insert(f) {
			live = append(live, f)
		}
	}
	txs := make([]Update, txCount)
	for t := range txs {
		ins := shortcut()
		k := r.Intn(len(live))
		del := live[k]
		live = append(live[:k], live[k+1:]...)
		live = append(live, ins)
		txs[t] = Update{Insert: []*term.Fact{ins}, Retract: []*term.Fact{del}}
	}
	return db, txs
}

// ChurnSupplierParts (u3) returns a supplier catalog plus a stream of
// transactions that each insert two random sp facts and retract two live
// ones — EDB churn underneath negation and grouping heads, the workload
// that drives ≡-class regrouping and the DRed cross-effects.
func ChurnSupplierParts(suppliers, partsPer, txCount int, seed int64) (*store.DB, []Update) {
	r := rand.New(rand.NewSource(seed))
	db := SupplierParts(suppliers, partsPer, seed)
	pool := suppliers * partsPer / 2
	if pool < 1 {
		pool = 1
	}
	sp := func() *term.Fact {
		return term.NewFact("sp",
			term.Atom(fmt.Sprintf("s%d", r.Intn(suppliers))),
			term.Atom(fmt.Sprintf("p%d", r.Intn(pool))))
	}
	live := append([]*term.Fact(nil), db.Facts()...)
	txs := make([]Update, txCount)
	for t := range txs {
		var u Update
		for k := 0; k < 2; k++ {
			f := sp()
			u.Insert = append(u.Insert, f)
			live = append(live, f)
		}
		for k := 0; k < 2 && len(live) > 0; k++ {
			i := r.Intn(len(live))
			u.Retract = append(u.Retract, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		txs[t] = u
	}
	return db, txs
}
