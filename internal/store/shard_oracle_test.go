package store

import (
	"fmt"
	"math/rand"
	"sort"
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
	db := NewDBWith(Config{Shards: 4})
	ref := newRefDB()
	forks, loads := 0, 0
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
		case op < 8 && forks < 3: // fork and continue in the fork
			db = db.Fork()
			forks++
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
		if got := db.RelOrNil(p).ShardCount(); got != 4 {
			t.Fatalf("seed %d: %s has %d shards, want 4", seed, p, got)
		}
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
// oracle: the fact order (not just the set) is identical for
// every worker count, because shards are partitioned before workers start.
func TestLoadFactsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := make([]*term.Fact, 5000)
	for i := range fs {
		fs[i] = term.NewFact("e", term.Int(int64(rng.Intn(3000))), term.Int(int64(rng.Intn(3000))))
	}
	var orders [][]*term.Fact
	for _, workers := range []int{1, 2, 4} {
		db := NewDBWith(Config{Shards: 8})
		db.LoadFacts(fs, LoadOpts{Workers: workers})
		r := db.RelOrNil("e")
		if r.ShardCount() != 8 {
			t.Fatalf("workers=%d: resharded to %d, want 8", workers, r.ShardCount())
		}
		orders = append(orders, append([]*term.Fact(nil), r.All()...))
	}
	for w := 1; w < len(orders); w++ {
		if len(orders[0]) != len(orders[w]) {
			t.Fatalf("order length differs: %d vs %d", len(orders[0]), len(orders[w]))
		}
		for i := range orders[0] {
			if !term.EqualFacts(orders[0][i], orders[w][i]) {
				t.Fatalf("fact order differs at %d: %s vs %s", i, orders[0][i], orders[w][i])
			}
		}
	}
}

// TestDBLenCacheAndFactsOrder covers the DB satellites: Len is maintained
// incrementally by the DB-level mutators, survives the fallback once a
// mutable relation escapes, and Facts() is pred-sorted.
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
	// Direct relation mutation after Rel escape must still be reflected.
	db.Rel("zz").Insert(f("zz", 2))
	if db.Len() != 3 {
		t.Fatalf("Len=%d after escaped insert, want 3", db.Len())
	}
	fk := db.Fork()
	fk.Insert(f("aa", 9))
	if fk.Len() != 4 || db.Len() != 3 {
		t.Fatalf("fork Len=%d base Len=%d, want 4/3", fk.Len(), db.Len())
	}
}
