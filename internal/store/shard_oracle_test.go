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
	k := f.String()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.facts = append(r.facts, f)
	return true
}

func (r *refDB) delete(f *term.Fact) bool {
	k := f.String()
	if !r.seen[k] {
		return false
	}
	delete(r.seen, k)
	for i, g := range r.facts {
		if g.String() == k {
			r.facts = append(r.facts[:i], r.facts[i+1:]...)
			break
		}
	}
	return true
}

func (r *refDB) contains(f *term.Fact) bool { return r.seen[f.String()] }

func (r *refDB) clear(pred string) {
	r.facts = slices.DeleteFunc(r.facts, func(g *term.Fact) bool {
		if g.Pred != pred {
			return false
		}
		delete(r.seen, g.String())
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

// lookup returns the sorted texts of the facts for pred whose column c equals v.
func (r *refDB) lookup(pred string, c int, v term.Term) []string {
	var out []string
	for _, g := range r.facts {
		if g.Pred == pred && c < len(g.Args) && term.Equal(g.Args[c], v) {
			out = append(out, g.String())
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
// the reference.
func oracleScenario(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB()
	ref := newRefDB()
	loads := 0
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // bulk load; the first deepens the directory
			n := 1 + rng.Intn(200)
			if loads == 0 {
				n = 32 * unit
			}
			loads++
			fs := make([]*term.Fact, n)
			for i := range fs {
				fs[i] = randOracleFact(rng)
			}
			got := db.LoadFacts(fs, LoadOpts{})
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
				for _, g := range lookupCol(r, c, f.Args[c]) {
					keys = append(keys, g.String())
				}
				sort.Strings(keys)
				want := ref.lookup(f.Pred, c, f.Args[c])
				if !slices.Equal(keys, want) {
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
}

// checkShards asserts the split invariant (checkDir) of the relation's
// intern tables and of every index it has built (room), and that an index
// counts its keys.  A live intern entry is a fact of the relation; a live
// index entry is a non-empty bucket of facts of the relation.
func checkShards(t *testing.T, r *Relation) {
	t.Helper()
	held := make(map[*term.Fact]bool, r.Len())
	r.segs.each(func(s *segment) {
		for _, f := range s.facts {
			held[f] = true
		}
	})
	if r.shards.len() > 0 {
		checkDir(t, r.Name+" intern tables", &r.shards, r.shardBits, func(tb *factTable) shardView {
			v := shardView{depth: tb.depth, slots: len(tb.slots), n: tb.n, sized: tb.sized}
			for _, g := range tb.slots {
				if g != nil {
					v.hashes = append(v.hashes, hashFact(g))
					if !held[g] {
						v.dead++
					} else if get(tb, hashFact(g), g) != g {
						v.lost++
					}
				}
			}
			return v
		})
	}
	for _, ix := range builtIndexes(r) {
		keys := checkDir(t, fmt.Sprintf("%s index %v", r.Name, ix.cols), &ix.shards, ix.bits, func(sh *idxShard) shardView {
			v := shardView{depth: sh.depth, slots: len(sh.slots), n: sh.n}
			for _, e := range sh.slots {
				if e != nil {
					v.hashes = append(v.hashes, e.hash)
					if !liveEntry(e, held) {
						v.dead++
					} else if sh.slots[find(sh, e.hash, e.vals)] != e {
						v.lost++
					}
				}
			}
			return v
		})
		if keys != ix.keys {
			t.Fatalf("%s index %v: %d keys in the shards, %d counted", r.Name, ix.cols, keys, ix.keys)
		}
	}
}

// liveEntry reports whether e is a non-empty bucket of facts held by the
// relation.
func liveEntry(e *idxEntry, held map[*term.Fact]bool) bool {
	live := e.facts.len() > 0
	e.facts.each(func(f *term.Fact) { live = live && held[f] })
	return live
}

// shardView is what checkDir needs of one table: its local depth, the hashes
// of the entries in its occupied slots, how many of those entries are not
// live, how many live ones a probe from their home slot misses, its slots,
// its count and whether a bulk load sized it.
type shardView struct {
	depth      uint8
	hashes     []uint64
	dead, lost int
	slots, n   int
	sized      bool
}

// checkDir asserts the split invariant of one shard directory of depth bits:
// it has 2^bits entries; each table is listed at an aligned run of
// 2^(bits−depth) entries and nowhere else, and the top depth bits of its
// entries' hashes name that run; every occupied slot holds a live entry and
// the table counts them; a probe from its home slot reaches every entry; no
// table is more than 3/4 full; and no table
// exceeds unit slots unless the next hash bit does not separate its entries
// or a bulk load sized it.  It returns the live entries over all tables.
func checkDir[T comparable](t *testing.T, what string, d *dir[T], bits uint, view func(T) shardView) (live int) {
	t.Helper()
	if d.len() != 1<<bits {
		t.Fatalf("%s: %d directory entries at depth %d", what, d.len(), bits)
	}
	seen := map[T]bool{}
	for i := 0; i < d.len(); {
		tb := d.at(i)
		v := view(tb)
		if uint(v.depth) > bits || seen[tb] {
			t.Fatalf("%s: the table at entry %d (depth %d) is deeper than the directory (%d) or listed twice", what, i, v.depth, bits)
		}
		seen[tb] = true
		lo, n := span(i, bits, v.depth)
		if lo != i {
			t.Fatalf("%s: the table of depth %d at entry %d does not start an aligned run of %d", what, v.depth, i, n)
		}
		for j := i; j < i+n; j++ {
			if d.at(j) != tb {
				t.Fatalf("%s: entry %d of the run [%d, %d) lists another table", what, j, i, i+n)
			}
		}
		ones := 0
		for _, h := range v.hashes {
			if int(h>>(64-uint(v.depth))) != i>>(bits-uint(v.depth)) {
				t.Fatalf("%s: an entry of hash %#x sits in the table of run [%d, %d), depth %d", what, h, i, i+n, v.depth)
			}
			if h&(1<<(63-v.depth)) != 0 {
				ones++
			}
		}
		switch {
		case v.dead > 0:
			t.Fatalf("%s: %d occupied slots of the table of run [%d, %d) hold no live entry", what, v.dead, i, i+n)
		case v.lost > 0:
			t.Fatalf("%s: a probe misses %d entries of the table of run [%d, %d)", what, v.lost, i, i+n)
		case len(v.hashes) != v.n:
			t.Fatalf("%s: the table of run [%d, %d) occupies %d slots, counts %d entries", what, i, i+n, len(v.hashes), v.n)
		case len(v.hashes)*4 > v.slots*3:
			t.Fatalf("%s: the table of run [%d, %d) occupies %d of %d slots", what, i, i+n, len(v.hashes), v.slots)
		case v.slots > unit && !v.sized && ones > 0 && ones < len(v.hashes):
			t.Fatalf("%s: the table of run [%d, %d) has %d slots for %d entries its next bit separates", what, i, i+n, v.slots, len(v.hashes))
		}
		live += v.n
		i += n
	}
	return live
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
// sharded store and checks every observable against the naive reference.
func TestShardedStoreOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		oracleScenario(t, seed)
	}
}

// TestLoadFactsDeterministicOrder pins the stronger property behind the
// oracle: a bulk load appends its new facts in input order, whatever the
// shard count.
func TestLoadFactsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := make([]*term.Fact, 5000)
	ref := newRefDB()
	for i := range fs {
		fs[i] = term.NewFact("e", term.Int(int64(rng.Intn(3000))), term.Int(int64(rng.Intn(3000))))
		ref.insert(fs[i])
	}
	db := NewDB()
	db.LoadFacts(fs, LoadOpts{})
	r := db.RelOrNil("e")
	checkShards(t, r)
	if r.shards.len() < 2 {
		t.Fatalf("%d shards for %d facts", r.shards.len(), r.Len())
	}
	if got := r.All(); !sameSequence(got, ref.facts) {
		t.Fatalf("%d facts loaded, not the %d distinct ones in input order", len(got), len(ref.facts))
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

// check compares the snapshot with its reference: per predicate (of only,
// when given) the facts as a sequence, the split invariant, Len, and every
// index built so far — before the clone that shares it or lazily
// afterwards, on this relation or inherited — bucket by bucket, in order,
// for the values of a sample of facts.
func (s snapshot) check(t *testing.T, rng *rand.Rand, what string, only ...string) {
	t.Helper()
	if s.db.Len() != len(s.ref.facts) {
		t.Fatalf("%s: Len=%d oracle=%d", what, s.db.Len(), len(s.ref.facts))
	}
	byPred := map[string][]*term.Fact{}
	for _, f := range s.ref.facts {
		byPred[f.Pred] = append(byPred[f.Pred], f)
	}
	for _, p := range s.db.Preds() {
		if len(only) > 0 && !slices.Contains(only, p) {
			continue
		}
		r, want := s.db.RelOrNil(p), byPred[p]
		if got := r.All(); !sameSequence(got, want) {
			t.Fatalf("%s: %s holds %d facts, oracle %d, or in another order", what, p, len(got), len(want))
		}
		var walked []*term.Fact
		r.Scan(func(run []*term.Fact) error {
			walked = append(walked, run...)
			return nil
		})
		if !sameSequence(walked, want) {
			t.Fatalf("%s: %s: the runs Scan hands out do not concatenate to All()", what, p)
		}
		checkShards(t, r)
		for _, ix := range builtIndexes(r) {
			for k := 0; k < 3 && len(want) > 0; k++ {
				probe := want[rng.Intn(len(want))]
				switch k {
				case 0:
					probe = randOracleFact(rng) // usually absent
				case 1:
					probe = bigFact(0) // the key of the paged bucket
				}
				vals, ok := ix.key(probe, nil)
				if !ok {
					continue
				}
				var inBucket []*term.Fact
				var buf [8]term.Term
				for _, g := range want {
					if gv, ok := ix.key(g, buf[:0]); ok && keyOf(gv) == keyOf(vals) {
						inBucket = append(inBucket, g)
					}
				}
				if got := bucket(ix, vals); !sameSequence(got, inBucket) {
					t.Fatalf("%s: %s index %v bucket %v holds %d facts, oracle %d", what, p, ix.cols, vals, len(got), len(inBucket))
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
// every snapshot as it is published.  p0 holds a bucket of 4·unit facts
// under one key in its column-0 index, which cutBucket cuts down on a fork
// first; a stream below pagedSize then grows g and its column-0 index from
// one fact to 8·unit and more across forks, and one of pagedSize goes on
// with spanPages.
func forkChain(t *testing.T, seed int64, size, steps int, visit func(snapshot)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	some := func(n int) []*term.Fact {
		fs := make([]*term.Fact, n)
		for i := range fs {
			fs[i] = randOracleFact(rng)
			if size > 300 { // a universe wide enough to reach the size, in column 0
				fs[i] = term.NewFact(fs[i].Pred, append([]term.Term{term.Int(int64(rng.Intn(4 * size)))}, fs[i].Args...)...)
			}
			if rng.Intn(16) == 0 {
				fs[i] = bigFact(rng.Intn(8 * unit))
			}
		}
		return fs
	}
	base := snapshot{NewDB(), newRefDB()}
	for _, f := range append(some(size), bigFacts(4*unit)...) {
		base.db.Insert(f)
		base.ref.insert(f)
	}
	lookupCol(base.db.RelOrNil("p0"), 0, big) // an index the clones share
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
	for how := range 3 {
		if err := cutBucket(base, how); err != nil {
			t.Fatalf("seed %d size %d: %v", seed, size, err)
		}
		for i, s := range append(live, base) {
			s.check(t, rng, fmt.Sprintf("seed %d size %d after cutBucket %d, database %d", seed, size, how, i))
		}
	}
	// Below pagedSize, g grows from one fact to 8·unit and more, a batch at a
	// time, and a snapshot is published before each batch: every split and
	// directory doubling of its intern tables and of its column-0 index
	// happens on a fork of a relation the snapshots share.
	for k := 0; size < pagedSize && k < 8*unit; {
		publish(base)
		fs := gFacts(k, 1+rng.Intn(unit))
		for _, f := range fs {
			base.ref.insert(f)
		}
		if rng.Intn(4) == 0 {
			base.db.LoadFacts(fs, LoadOpts{})
		} else {
			for _, f := range fs {
				base.db.Insert(f)
			}
		}
		k += len(fs)
		lookupCol(base.db.RelOrNil("g"), 0, term.Int(int64(rng.Intn(k))))
		for i, s := range append(live, base) {
			s.check(t, rng, fmt.Sprintf("seed %d size %d growing g to %d facts, database %d", seed, size, k, i), "g")
		}
	}
	if size < pagedSize {
		if err := grown(base.db.RelOrNil("g")); err != nil {
			t.Fatalf("seed %d size %d: %v", seed, size, err)
		}
	} else {
		spanPages(t, base, some)
		for i, s := range append(live, base) {
			s.check(t, rng, fmt.Sprintf("seed %d size %d after spanPages, database %d", seed, size, i))
		}
	}
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
			if got := w.db.LoadFacts(fs, LoadOpts{}); got != want {
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
				for _, g := range lookupCol(r, c, f.Args[c]) {
					keys = append(keys, g.String())
				}
				sort.Strings(keys)
				if want := s.ref.lookup(f.Pred, c, f.Args[c]); !slices.Equal(keys, want) {
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

// gFacts returns n facts of g from the k-th on: the relation the clone-chain
// streams grow across forks, each fact a key of its own in column 0.
func gFacts(k, n int) []*term.Fact {
	fs := make([]*term.Fact, n)
	for i := range fs {
		fs[i] = term.NewFact("g", term.Int(int64(k+i)), term.Atom(fmt.Sprintf("a%d", (k+i)%7)))
	}
	return fs
}

// grown reports a g that its growth left without a fork, or without a
// directory of intern tables and a column-0 index of eight entries or more.
func grown(r *Relation) error {
	if ix := r.findIndex(1); r.id == 0 || ix == nil || r.shardBits < 3 || ix.bits < 3 {
		return fmt.Errorf("g (fork %d) of %d facts: intern directory depth %d, column-0 index %v; want a fork, both of depth 3 or more", r.id, r.Len(), r.shardBits, ix != nil)
	}
	return nil
}

// big is the column-0 value of the p0 facts that fill one index bucket
// past a page.
var big = term.Atom("big")

func bigFact(i int) *term.Fact { return term.NewFact("p0", big, term.Int(int64(i))) }

func bigFacts(n int) []*term.Fact {
	fs := make([]*term.Fact, n)
	for i := range fs {
		fs[i] = bigFact(i)
	}
	return fs
}

// cutBucket deletes from the bucket of big in the column-0 index of a
// writer's p0, a bucket that spans three pages or more in a relation the
// writer shares with a clone, so it writes a fork: how 0 removes one fact
// of a middle page, 1 every fact of a middle page, and 2 all but the
// newest unit facts.  It reports a bucket that did not change as it should.
func cutBucket(w snapshot, how int) error {
	b := w.db.RelOrNil("p0").findIndex(1).probe([]term.Term{big})
	if b.npages() < 3 {
		return fmt.Errorf("cutBucket %d: the bucket of %s spans %d pages, want 3 or more", how, big, b.npages())
	}
	mid := b.page(b.npages() / 2)
	var gone []*term.Fact
	switch how {
	case 0:
		gone = mid[len(mid)/2 : len(mid)/2+1]
	case 1:
		gone = mid
	default:
		gone = bucket(w.db.RelOrNil("p0").findIndex(1), []term.Term{big})
		gone = gone[:len(gone)-unit]
	}
	gone = slices.Clone(gone)
	for _, f := range gone {
		w.ref.delete(f)
	}
	n, pages := b.len(), b.npages()
	r := w.db.Rel("p0")
	if got := r.DeleteAll(gone); got != len(gone) {
		return fmt.Errorf("cutBucket %d: DeleteAll removed %d of %d facts", how, got, len(gone))
	}
	after := r.findIndex(1).probe([]term.Term{big})
	switch {
	case r.id == 0:
		return fmt.Errorf("cutBucket %d: p0 is no fork", how)
	case after.len() != n-len(gone):
		return fmt.Errorf("cutBucket %d: the bucket holds %d facts, want %d", how, after.len(), n-len(gone))
	case how == 0 && after.npages() != pages, how == 1 && after.npages() != pages-1:
		return fmt.Errorf("cutBucket %d: the bucket spans %d pages, %d before", how, after.npages(), pages)
	case how == 2 && after.len() > unit:
		return fmt.Errorf("cutBucket %d: the bucket holds %d facts, want %d or fewer", how, after.len(), unit)
	}
	return nil
}

// pagedSize is a clone-chain size at which every directory is paged: about
// 1.5·unit² facts per predicate, and spanPages takes p0 past 2·unit².
const pagedSize = 9 * unit * unit / 2

// spanPages writes p0 of a writer that has just been cloned, so a fork of
// it, until the fork has doubled the directories of its intern tables and of
// its index on column 0 (an index it inherited): its segments, intern shards
// and index shards then span three directory pages or more each.  Then it empties a
// segment in the middle of p0 with one DeleteAll, and clears p1.
func spanPages(t *testing.T, w snapshot, some func(int) []*term.Fact) {
	t.Helper()
	r := w.db.RelOrNil("p0")
	shards, bits := r.shards.len(), r.findIndex(1).bits
	for r = w.db.Rel("p0"); r.shards.len() == shards || r.findIndex(1).bits == bits; {
		fs := some(unit)
		for i, f := range fs {
			fs[i] = term.NewFact("p0", f.Args...)
			w.ref.insert(fs[i])
		}
		w.db.LoadFacts(fs, LoadOpts{})
	}
	if r.id == 0 || r.segs.npages() < 3 || r.shards.npages() < 3 || r.findIndex(1).shards.npages() < 3 {
		t.Fatalf("p0 (fork %d): %d segment, %d shard and %d index directory pages, want a fork with 3 or more each",
			r.id, r.segs.npages(), r.shards.npages(), r.findIndex(1).shards.npages())
	}
	var runs [][]*term.Fact
	r.Scan(func(run []*term.Fact) error {
		runs = append(runs, run)
		return nil
	})
	mid, segs := slices.Clone(runs[len(runs)/2]), r.segs.len()
	for _, f := range mid {
		w.ref.delete(f)
	}
	if got := w.db.DeleteAll(mid); got != len(mid) || r.segs.len() != segs-1 {
		t.Fatalf("DeleteAll of the %d facts of a middle segment removed %d, left %d of %d segments", len(mid), got, r.segs.len(), segs)
	}
	w.db.Clear("p1")
	w.ref.clear("p1")
}

// TestForkChainOracle runs the clone-chain stream at sizes below one unit,
// across unit boundaries, across directory doublings and across directory
// pages, comparing every published snapshot and every writer with its
// reference after every step.
func TestForkChainOracle(t *testing.T) {
	for _, size := range []int{unit / 4, unit - 8, 4*unit - 16} {
		for seed := int64(1); seed <= 3; seed++ {
			forkChain(t, seed, size, 100, func(snapshot) {})
		}
	}
	forkChain(t, 1, pagedSize, 30, func(snapshot) {})
}

// TestForkChainReaders is the same stream with readers: every snapshot, as
// it is published, gets a goroutine that keeps scanning, probing (building
// indexes on first use) and point-reading it against its reference while
// the writers go on writing its source and cloning it.  Under the race
// detector this is the check that a write never lands in a unit a snapshot
// can still reach.
func TestForkChainReaders(t *testing.T) {
	var wg sync.WaitGroup
	read := func(s snapshot, seed int64, reads int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < reads; k++ {
			f := randOracleFact(rng)
			switch rng.Intn(4) {
			case 0:
				f = bigFact(rng.Intn(8 * unit))
			case 1, 2:
				if len(s.ref.facts) > 0 {
					f = s.ref.facts[rng.Intn(len(s.ref.facts))]
				}
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
			if got, want := len(lookupCol(r, c, f.Args[c])), len(s.ref.lookup(f.Pred, c, f.Args[c])); got != want {
				t.Errorf("reader: Lookup(%s,%d,%s) has %d facts, oracle %d", f.Pred, c, f.Args[c], got, want)
				return
			}
			n := 0
			r.Scan(func(run []*term.Fact) error {
				n += len(run)
				return nil
			})
			if n != r.Len() {
				t.Errorf("reader: Scan of %s handed out %d facts of %d", f.Pred, n, r.Len())
				return
			}
		}
	}
	var next int64
	for _, c := range []struct{ size, steps, reads int }{{3 * unit, 150, 400}, {pagedSize, 30, 40}} {
		forkChain(t, 11, c.size, c.steps, func(s snapshot) {
			next++
			wg.Add(1)
			go read(s, next, c.reads)
		})
	}
	wg.Wait()
}

// TestConcurrentClones: several goroutines clone one database at once, each
// writing its clone (building indexes on the shared relations on the way,
// cutting down a paged index bucket of the source with cutBucket, and
// growing g and its column-0 index from IndexThreshold facts to 8·unit and
// more), and the source is written once they are done.  Under the race detector a
// write that reaches a relation another database shares is a reported race;
// the references catch the rest.
func TestConcurrentClones(t *testing.T) {
	for _, size := range []int{3 * unit, 3 * (2*unit*unit + unit)} {
		concurrentClones(t, size)
	}
}

// concurrentClones runs TestConcurrentClones on a source of size facts in
// three relations, each indexed on column 0, where every fact has a value of
// its own but 4·unit facts of p0 that share one: past 3·2·unit² facts every
// directory is paged.
func concurrentClones(t *testing.T, size int) {
	rng := rand.New(rand.NewSource(5))
	src := snapshot{NewDB(), newRefDB()}
	for i := 0; i < size; i++ {
		f := randOracleFact(rng)
		f = term.NewFact(f.Pred, append([]term.Term{term.Int(int64(i))}, f.Args...)...)
		src.db.Insert(f)
		src.ref.insert(f)
	}
	for _, f := range bigFacts(4 * unit) {
		src.db.Insert(f)
		src.ref.insert(f)
	}
	lookupCol(src.db.RelOrNil("p0"), 0, big)
	for _, f := range gFacts(0, IndexThreshold) {
		src.db.Insert(f)
		src.ref.insert(f)
	}
	lookupCol(src.db.RelOrNil("g"), 0, term.Int(0))
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
					lookupCol(r, 0, f.Args[0])
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
			if err := cutBucket(clones[g], g%3); err != nil {
				t.Errorf("size %d clone %d: %v", size, g, err)
			}
			// Each clone grows g to 8·unit facts and more on its fork of the
			// relation the source and the other clones share.
			for _, f := range gFacts(IndexThreshold, 8*unit) {
				clones[g].db.Insert(f)
				clones[g].ref.insert(f)
			}
			if err := grown(clones[g].db.RelOrNil("g")); err != nil {
				t.Errorf("size %d clone %d: %v", size, g, err)
			}
			write(clones[g], rand.New(rand.NewSource(int64(g))))
		}(g)
	}
	wg.Wait()
	write(src, rng)
	if size > 6*unit*unit {
		paged := false
		for _, p := range src.db.Preds() {
			r := src.db.RelOrNil(p)
			ix := r.findIndex(1)
			paged = paged || ix != nil && r.segs.npages() >= 3 && r.shards.npages() >= 3 && ix.shards.npages() >= 3
		}
		if !paged {
			t.Fatalf("size %d: no relation spans three directory pages in its segments, intern shards and column-0 index", size)
		}
	}
	for g, c := range append(clones, src) {
		c.check(t, rng, fmt.Sprintf("size %d database %d", size, g))
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
