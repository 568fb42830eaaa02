package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"ldl1/internal/term"
)

// refDB is the oracle: a deliberately naive single-shard fact store with
// the same observable semantics as DB — dedup by structural identity,
// per-predicate insertion order, batch delete.  Every operation is O(n)
// and obviously correct.
type refDB struct {
	facts []*term.Fact
	seen  map[string]bool
}

func newRefDB() *refDB { return &refDB{seen: map[string]bool{}} }

func (r *refDB) insert(f *term.Fact) bool {
	k := f.Key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.facts = append(r.facts, f)
	return true
}

func (r *refDB) delete(f *term.Fact) bool {
	k := f.Key()
	if !r.seen[k] {
		return false
	}
	delete(r.seen, k)
	for i, g := range r.facts {
		if g.Key() == k {
			r.facts = append(r.facts[:i], r.facts[i+1:]...)
			break
		}
	}
	return true
}

func (r *refDB) contains(f *term.Fact) bool { return r.seen[f.Key()] }

func (r *refDB) clear(pred string) {
	r.facts = slices.DeleteFunc(r.facts, func(g *term.Fact) bool {
		if g.Pred != pred {
			return false
		}
		delete(r.seen, g.Key())
		return true
	})
}

func (r *refDB) clone() *refDB {
	out := newRefDB()
	out.facts = append([]*term.Fact(nil), r.facts...)
	for k := range r.seen {
		out.seen[k] = true
	}
	return out
}

// lookup returns the keys of facts for pred whose column c equals v.
func (r *refDB) lookup(pred string, c int, v term.Term) []string {
	var out []string
	for _, g := range r.facts {
		if g.Pred == pred && c < len(g.Args) && term.Equal(g.Args[c], v) {
			out = append(out, g.Key())
		}
	}
	sort.Strings(out)
	return out
}

// randOracleFact draws from a small universe so inserts collide and
// deletes hit, mixing arities 0-2 within a relation: most facts are ground
// flat, a fraction carry a compound argument.
func randOracleFact(rng *rand.Rand) *term.Fact {
	pred := fmt.Sprintf("p%d", rng.Intn(3))
	switch rng.Intn(20) {
	case 0, 1:
		return term.NewFact(pred, term.NewCompound("f", term.Int(int64(rng.Intn(20)))), term.Int(int64(rng.Intn(20))))
	case 2, 3:
		return term.NewFact(pred, term.Atom(fmt.Sprintf("a%d", rng.Intn(20))))
	case 4:
		return term.NewFact(pred)
	default:
		return term.NewFact(pred, term.Int(int64(rng.Intn(40))), term.Atom(fmt.Sprintf("a%d", rng.Intn(20))))
	}
}

// oracleScenario runs one randomized op sequence against a sharded DB and
// the reference, returning the final DB rendering for cross-worker-count
// comparison.
func oracleScenario(t *testing.T, seed int64, workers int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB()
	ref := newRefDB()
	loads := 0
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // bulk load; the first is of resharding size
			n := 1 + rng.Intn(200)
			if loads == 0 {
				n = 4 * reshardMin
			}
			loads++
			fs := make([]*term.Fact, n)
			for i := range fs {
				fs[i] = randOracleFact(rng)
			}
			got := db.LoadFacts(fs, LoadOpts{Workers: workers})
			want := 0
			for _, f := range fs {
				if ref.insert(f) {
					want++
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: LoadFacts added %d, oracle %d", seed, step, got, want)
			}
		case op < 5: // single insert
			f := randOracleFact(rng)
			if got, want := db.Insert(f), ref.insert(f); got != want {
				t.Fatalf("seed %d step %d: Insert=%v oracle=%v for %s", seed, step, got, want, f)
			}
		case op < 6: // single delete
			f := randOracleFact(rng)
			if got, want := db.Delete(f), ref.delete(f); got != want {
				t.Fatalf("seed %d step %d: Delete=%v oracle=%v for %s", seed, step, got, want, f)
			}
		case op < 7: // batch delete
			n := 1 + rng.Intn(30)
			fs := make([]*term.Fact, n)
			for i := range fs {
				fs[i] = randOracleFact(rng)
			}
			want := 0
			for _, f := range fs {
				if ref.delete(f) {
					want++
				}
			}
			if got := db.DeleteAll(fs); got != want {
				t.Fatalf("seed %d step %d: DeleteAll=%d oracle=%d", seed, step, got, want)
			}
		case op < 9: // clone and continue in the clone
			db = db.Clone()
			ref = ref.clone()
		default: // point and column probes
			f := randOracleFact(rng)
			if got, want := db.Contains(f), ref.contains(f); got != want {
				t.Fatalf("seed %d step %d: Contains=%v oracle=%v for %s", seed, step, got, want, f)
			}
			if r := db.RelOrNil(f.Pred); r != nil && len(f.Args) > 0 {
				c := rng.Intn(len(f.Args))
				var keys []string
				for _, g := range r.Lookup(c, f.Args[c]) {
					keys = append(keys, g.Key())
				}
				sort.Strings(keys)
				want := ref.lookup(f.Pred, c, f.Args[c])
				if fmt.Sprint(keys) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Lookup(%s,%d,%s)=%v oracle=%v", seed, step, f.Pred, c, f.Args[c], keys, want)
				}
			}
		}
		if db.Len() != len(ref.facts) {
			t.Fatalf("seed %d step %d: Len=%d oracle=%d", seed, step, db.Len(), len(ref.facts))
		}
	}
	if got, want := db.String(), refString(ref); got != want {
		t.Fatalf("seed %d: final contents diverge\n store: %.300s\noracle: %.300s", seed, got, want)
	}
	for _, p := range db.Preds() {
		checkShards(t, db.RelOrNil(p))
	}
	// Canonical identity: Get must return one stable pointer per value.
	for _, f := range ref.facts[:min(len(ref.facts), 20)] {
		fresh := term.NewFact(f.Pred, append([]term.Term(nil), f.Args...)...)
		g1, ok1 := db.RelOrNil(f.Pred).Get(fresh)
		g2, ok2 := db.RelOrNil(f.Pred).Get(fresh)
		if !ok1 || !ok2 || g1 != g2 {
			t.Fatalf("seed %d: Get not canonical for %s", seed, f)
		}
	}
	return db.String()
}

// checkShards asserts what the shard count is a function of: the relation's
// size (a power of two, the fewest that keep the mean shard within one unit
// — or more, where the relation has been larger or a bulk load asked for
// one shard per worker).
func checkShards(t *testing.T, r *Relation) {
	t.Helper()
	n := r.ShardCount()
	if n&(n-1) != 0 || n*unit < r.Len() {
		t.Fatalf("%s: %d facts in %d shards of at most %d", r.Name, r.Len(), n, unit)
	}
}

func refString(r *refDB) string {
	lines := make([]string, 0, len(r.facts))
	for _, f := range r.facts {
		lines = append(lines, f.String()+".")
	}
	sort.Strings(lines)
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}

// TestShardedStoreOracle drives randomized op sequences through the
// sharded store at worker counts 1, 2 and 4 and checks every observable
// against the naive reference — and that the three worker counts land on
// identical final states.
func TestShardedStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var states []string
		for _, workers := range []int{1, 2, 4} {
			states = append(states, oracleScenario(t, seed, workers))
		}
		if states[0] != states[1] || states[0] != states[2] {
			t.Fatalf("seed %d: final state differs across worker counts", seed)
		}
	}
}

// TestLoadFactsDeterministicOrder pins the stronger property behind the
// oracle: a bulk load appends its new facts in input order, whatever the
// worker count and the shard count that comes with it.
func TestLoadFactsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := make([]*term.Fact, 5000)
	ref := newRefDB()
	for i := range fs {
		fs[i] = term.NewFact("e", term.Int(int64(rng.Intn(3000))), term.Int(int64(rng.Intn(3000))))
		ref.insert(fs[i])
	}
	for _, workers := range []int{1, 2, 4, 64} {
		db := NewDB()
		db.LoadFacts(fs, LoadOpts{Workers: workers})
		r := db.RelOrNil("e")
		checkShards(t, r)
		if r.ShardCount() < workers {
			t.Fatalf("workers=%d: %d shards", workers, r.ShardCount())
		}
		if got := r.All(); !sameSequence(got, ref.facts) {
			t.Fatalf("workers=%d: %d facts loaded, not the %d distinct ones in input order", workers, len(got), len(ref.facts))
		}
	}
}

func sameSequence(got, want []*term.Fact) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !term.EqualFacts(got[i], want[i]) {
			return false
		}
	}
	return true
}

// snapshot is a database beside a deep copy of what it holds: a writer, or
// a published clone that is no longer written.
type snapshot struct {
	db  *DB
	ref *refDB
}

// clone is DB.Clone beside a deep copy of the reference.
func (s snapshot) clone() snapshot { return snapshot{s.db.Clone(), s.ref.clone()} }

// check compares the snapshot with its reference: per predicate the facts
// as a sequence, Len, and every index built so far — before the clone that
// shares it or lazily afterwards, on this relation or inherited — bucket by
// bucket, in order, for the values of a sample of facts.
func (s snapshot) check(t *testing.T, rng *rand.Rand, what string) {
	t.Helper()
	if s.db.Len() != len(s.ref.facts) {
		t.Fatalf("%s: Len=%d oracle=%d", what, s.db.Len(), len(s.ref.facts))
	}
	byPred := map[string][]*term.Fact{}
	for _, f := range s.ref.facts {
		byPred[f.Pred] = append(byPred[f.Pred], f)
	}
	for _, p := range s.db.Preds() {
		r, want := s.db.RelOrNil(p), byPred[p]
		if got := r.All(); !sameSequence(got, want) {
			t.Fatalf("%s: %s holds %d facts, oracle %d, or in another order", what, p, len(got), len(want))
		}
		var walked []*term.Fact
		for i := 0; len(walked) < r.Len(); i++ {
			walked = append(walked, r.Segment(i)...)
		}
		if !sameSequence(walked, want) {
			t.Fatalf("%s: %s: segments do not concatenate to All()", what, p)
		}
		checkShards(t, r)
		for _, ix := range builtIndexes(r) {
			if ix.keys > unit<<ix.bits {
				t.Fatalf("%s: %s index %v: %d keys in %d shards", what, p, ix.cols, ix.keys, len(ix.shards))
			}
			for k := 0; k < 3 && len(want) > 0; k++ {
				probe := want[rng.Intn(len(want))]
				if k == 0 {
					probe = randOracleFact(rng) // usually absent
				}
				vals, ok := ix.key(probe, nil)
				if !ok {
					continue
				}
				var bucket []*term.Fact
				for _, g := range want {
					if gv, ok := ix.key(g, nil); ok && keyOf(gv) == keyOf(vals) {
						bucket = append(bucket, g)
					}
				}
				if got := ix.probe(vals); !sameSequence(got, bucket) {
					t.Fatalf("%s: %s index %v bucket %v holds %d facts, oracle %d", what, p, ix.cols, vals, len(got), len(bucket))
				}
			}
		}
	}
	for k := 0; k < 8; k++ {
		f := randOracleFact(rng)
		if len(s.ref.facts) > 0 && k%2 == 0 {
			f = s.ref.facts[rng.Intn(len(s.ref.facts))]
		}
		if got, want := s.db.Contains(f), s.ref.contains(f); got != want {
			t.Fatalf("%s: Contains(%s)=%v oracle=%v", what, f, got, want)
		}
	}
}

// forkChain drives a random write stream through chains and fans of clones.
// Up to three writers take the writes, among them Clear.  Publishing clones
// a writer into a snapshot that is never written again, and the writer —
// the clone's source — goes on being written, as a view's next transaction
// writes a clone of the published model while readers hold the old one.  A
// split clones a writer or an older snapshot into a new writer, after which
// both sides of a writer's clone are written, as concurrent magic
// executions clone one EDB.  Probes land on writers and snapshots alike, so
// indexes get built before and after the clones that share them.  Every
// live database is compared with its reference after every step; visit sees
// every snapshot as it is published.
func forkChain(t *testing.T, seed int64, size, steps int, visit func(snapshot)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	some := func(n int) []*term.Fact {
		fs := make([]*term.Fact, n)
		for i := range fs {
			fs[i] = randOracleFact(rng)
			if size > 300 { // a universe wide enough to reach the size
				fs[i] = term.NewFact(fs[i].Pred, append(fs[i].Args, term.Int(int64(rng.Intn(size))))...)
			}
		}
		return fs
	}
	base := snapshot{NewDB(), newRefDB()}
	for _, f := range some(size) {
		base.db.Insert(f)
		base.ref.insert(f)
	}
	var live []snapshot
	publish := func(w snapshot) {
		s := w.clone()
		live = append(live, s)
		if len(live) > 5 {
			live = live[1:]
		}
		visit(s)
	}
	writers := []snapshot{base}
	publish(base)
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("seed %d size %d step %d", seed, size, step)
		w := writers[rng.Intn(len(writers))]
		switch op := rng.Intn(21); {
		case op < 6:
			f := some(1)[0]
			if got, want := w.db.Insert(f), w.ref.insert(f); got != want {
				t.Fatalf("%s: Insert=%v oracle=%v", what, got, want)
			}
		case op < 9:
			f := some(1)[0]
			if rng.Intn(3) > 0 && len(w.ref.facts) > 0 { // mostly a hit, often a recent one
				f = w.ref.facts[len(w.ref.facts)-1-rng.Intn(min(len(w.ref.facts), 1+rng.Intn(64)))]
			}
			if got, want := w.db.Delete(f), w.ref.delete(f); got != want {
				t.Fatalf("%s: Delete=%v oracle=%v", what, got, want)
			}
		case op < 11:
			fs := some(1 + rng.Intn(20))
			for i := range fs {
				if rng.Intn(2) == 0 && len(w.ref.facts) > 0 {
					fs[i] = w.ref.facts[rng.Intn(len(w.ref.facts))]
				}
			}
			want := 0
			for _, f := range fs {
				if w.ref.delete(f) {
					want++
				}
			}
			if got := w.db.DeleteAll(fs); got != want {
				t.Fatalf("%s: DeleteAll=%d oracle=%d", what, got, want)
			}
		case op < 13:
			fs := some(1 + rng.Intn(2*unit))
			want := 0
			for _, f := range fs {
				if w.ref.insert(f) {
					want++
				}
			}
			if got := w.db.LoadFacts(fs, LoadOpts{Workers: 1 + rng.Intn(3)}); got != want {
				t.Fatalf("%s: LoadFacts=%d oracle=%d", what, got, want)
			}
		case op < 14:
			pred := some(1)[0].Pred
			w.db.Clear(pred)
			w.ref.clear(pred)
		case op < 17: // probe a column of a writer or of a published snapshot
			s := w
			if rng.Intn(2) == 0 {
				s = live[rng.Intn(len(live))]
			}
			f := some(1)[0]
			if r := s.db.RelOrNil(f.Pred); r != nil && len(f.Args) > 0 {
				c := rng.Intn(len(f.Args))
				var keys []string
				for _, g := range r.Lookup(c, f.Args[c]) {
					keys = append(keys, g.Key())
				}
				sort.Strings(keys)
				if want := s.ref.lookup(f.Pred, c, f.Args[c]); fmt.Sprint(keys) != fmt.Sprint(want) {
					t.Fatalf("%s: Lookup(%s,%d,%s)=%v oracle=%v", what, f.Pred, c, f.Args[c], keys, want)
				}
			}
		case op < 19: // publish: the chain grows by one
			publish(w)
		default: // split: a new writer cloned from a writer or an older snapshot
			src := w
			if rng.Intn(2) == 0 {
				src = live[rng.Intn(len(live))]
			}
			if len(writers) < 3 {
				writers = append(writers, src.clone())
			} else {
				writers[rng.Intn(len(writers))] = src.clone()
			}
		}
		for i, s := range live {
			s.check(t, rng, fmt.Sprintf("%s, snapshot %d", what, i))
		}
		for i, s := range writers {
			s.check(t, rng, fmt.Sprintf("%s, writer %d", what, i))
		}
	}
}

// TestForkChainOracle runs the clone-chain stream at sizes below one unit,
// across unit boundaries and across directory doublings, comparing every
// published snapshot and every writer with its reference after every step.
func TestForkChainOracle(t *testing.T) {
	for _, size := range []int{unit / 4, unit - 8, 4*unit - 16} {
		for seed := int64(1); seed <= 3; seed++ {
			forkChain(t, seed, size, 100, func(snapshot) {})
		}
	}
}

// TestForkChainReaders is the same stream with readers: every snapshot, as
// it is published, gets a goroutine that keeps scanning, probing (building
// indexes on first use) and point-reading it against its reference while
// the writers go on writing its source and cloning it.  Under the race
// detector this is the check that a write never lands in a unit a snapshot
// can still reach.
func TestForkChainReaders(t *testing.T) {
	var wg sync.WaitGroup
	read := func(s snapshot, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 400; k++ {
			f := randOracleFact(rng)
			if len(s.ref.facts) > 0 && rng.Intn(2) == 0 {
				f = s.ref.facts[rng.Intn(len(s.ref.facts))]
			}
			if got, want := s.db.Contains(f), s.ref.contains(f); got != want {
				t.Errorf("reader: Contains(%s)=%v oracle=%v", f, got, want)
				return
			}
			r := s.db.RelOrNil(f.Pred)
			if r == nil || len(f.Args) == 0 {
				continue
			}
			c := rng.Intn(len(f.Args))
			if got, want := len(r.Lookup(c, f.Args[c])), len(s.ref.lookup(f.Pred, c, f.Args[c])); got != want {
				t.Errorf("reader: Lookup(%s,%d,%s) has %d facts, oracle %d", f.Pred, c, f.Args[c], got, want)
				return
			}
			n := 0
			for i := 0; n < r.Len(); i++ {
				n += len(r.Segment(i))
			}
		}
	}
	var next int64
	forkChain(t, 11, 3*unit, 150, func(s snapshot) {
		next++
		wg.Add(1)
		go read(s, next)
	})
	wg.Wait()
}

// TestConcurrentClones: several goroutines clone one database at once, each
// writing its clone (building indexes on the shared relations on the way),
// and the source is written once they are done.  Under the race detector a
// write that reaches a relation another database shares is a reported race;
// the references catch the rest.
func TestConcurrentClones(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := snapshot{NewDB(), newRefDB()}
	for i := 0; i < 3*unit; i++ {
		f := randOracleFact(rng)
		f = term.NewFact(f.Pred, append(f.Args, term.Int(int64(i)))...)
		src.db.Insert(f)
		src.ref.insert(f)
	}
	write := func(s snapshot, rng *rand.Rand) {
		for k := 0; k < 300; k++ {
			f := randOracleFact(rng)
			if rng.Intn(2) == 0 {
				f = s.ref.facts[rng.Intn(len(s.ref.facts))]
			}
			switch rng.Intn(3) {
			case 0:
				s.db.Insert(f)
				s.ref.insert(f)
			case 1:
				s.db.Delete(f)
				s.ref.delete(f)
			default:
				if r := s.db.RelOrNil(f.Pred); r != nil && len(f.Args) > 0 {
					r.Lookup(0, f.Args[0])
				}
			}
		}
	}
	clones := make([]snapshot, 4)
	var wg sync.WaitGroup
	for g := range clones {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clones[g] = src.clone()
			write(clones[g], rand.New(rand.NewSource(int64(g))))
		}(g)
	}
	wg.Wait()
	write(src, rng)
	for g, c := range append(clones, src) {
		c.check(t, rng, fmt.Sprintf("database %d", g))
	}
}

// TestDBLenCacheAndFactsOrder covers the DB satellites: Len counts what the
// DB-level mutators and a written Rel handle put in, on both sides of a
// Clone, and Facts() is pred-sorted.
func TestDBLenCacheAndFactsOrder(t *testing.T) {
	db := NewDB()
	db.Insert(f("zz", 1))
	db.Insert(f("aa", 1))
	db.Insert(f("mm", 1))
	db.Insert(f("aa", 1)) // dup
	if db.Len() != 3 {
		t.Fatalf("Len=%d, want 3", db.Len())
	}
	db.Delete(f("mm", 1))
	if db.Len() != 2 {
		t.Fatalf("Len=%d after delete, want 2", db.Len())
	}
	facts := db.Facts()
	if len(facts) != 2 || facts[0].Pred != "aa" || facts[1].Pred != "zz" {
		t.Fatalf("Facts() not pred-sorted: %v", facts)
	}
	db.Rel("zz").Insert(f("zz", 2))
	if db.Len() != 3 {
		t.Fatalf("Len=%d after an insert through Rel, want 3", db.Len())
	}
	cl := db.Clone()
	cl.Insert(f("aa", 9))
	db.Delete(f("zz", 2))
	if cl.Len() != 4 || db.Len() != 2 {
		t.Fatalf("clone Len=%d source Len=%d, want 4/2", cl.Len(), db.Len())
	}
}
