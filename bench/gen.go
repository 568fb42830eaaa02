package main

// Input generators.  Everything the program under test sees is built here
// from the workload seed; nothing is read from internal/workload or
// internal/load, so a later change to those packages cannot move the inputs.
//
// The seed never changes the AMOUNT of work: it picks which nodes are hot,
// in which order keys are visited, how batch nodes are labelled and in which
// order facts are inserted.  Every seed's input is isomorphic to every
// other's, so run-to-run spread across seeds is the machine's, not the
// generator's.

import (
	"fmt"
	"math/rand"
	"strings"

	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Input sizes.  They are variables only so that the smoke test can shrink
// them; the benchmark never changes them, and the frozen model counts of
// the batch programs hold for these values alone.
var (
	// treeDepth is the depth of the complete binary family tree the three
	// tree workloads share: levels 0..9, 1 023 nodes in heap numbering
	// (children of i are 2i and 2i+1), 360 274 model facts.
	treeDepth = 9

	// anc: a layered random DAG — ancLayers layers of ancWidth nodes, every
	// node with two random edges into the next layer, so the closure is
	// bounded by the layer width.
	ancLayers, ancWidth = 8, 400
	// excl: exclChains parent chains of exclLen nodes.
	exclChains, exclLen = 6, 24
	// supplies: supSuppliers suppliers with supParts distinct parts each.
	supSuppliers, supParts = 4000, 50
	// partcost: one aggregate part made of pcFanout elementary parts; tc
	// holds a tuple for every non-empty subset of them.
	pcFanout = 9
	// join: a random graph of joinNodes nodes and out-degree joinDegree; a
	// wide table of joinWide rows over joinGroups groups x joinTags tags,
	// probed by a dimension table of joinDimRows rows.
	joinNodes, joinDegree                       = 3000, 6
	joinWide, joinGroups, joinTags, joinDimRows = 180000, 600, 8, 300

	frozenSizes = true // the sizes above are the ones the frozen counts were taken at
)

// frozen returns the expected per-predicate model sizes, or nil when the
// sizes have been changed and the frozen table does not apply.
func frozen(want map[string]int) map[string]int {
	if !frozenSizes {
		return nil
	}
	return want
}

// treeRules is the paper's §6 running example (a / sg / hasdesc / young
// with grouping and stratified negation) plus one more grouping rule.
const treeRules = `a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
hasdesc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), not hasdesc(X).
kids(P, <C>) <- p(P, C).
`

func treeNodes(depth int) int { return 1<<(depth+1) - 1 }

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// treeEdges lists the parent and sibling pairs of the tree.
func treeEdges(depth int) (parents, siblings [][2]int) {
	for i := 1; i < 1<<depth; i++ {
		parents = append(parents, [2]int{i, 2 * i}, [2]int{i, 2*i + 1})
		siblings = append(siblings, [2]int{2 * i, 2*i + 1}, [2]int{2*i + 1, 2 * i})
	}
	return parents, siblings
}

// treeSource is the tree program as text — rules plus EDB facts in
// seed-shuffled order — the form ldl1d and ldl1.New load.
func treeSource(depth int, seed int64) string {
	parents, siblings := treeEdges(depth)
	lines := make([]string, 0, len(parents)+len(siblings))
	for _, e := range parents {
		lines = append(lines, fmt.Sprintf("p(%s, %s).", nodeName(e[0]), nodeName(e[1])))
	}
	for _, e := range siblings {
		lines = append(lines, fmt.Sprintf("siblings(%s, %s).", nodeName(e[0]), nodeName(e[1])))
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return treeRules + strings.Join(lines, "\n") + "\n"
}

// treeDB is the tree EDB as a prebuilt database, for AddDB.
func treeDB(depth int, seed int64) *store.DB {
	parents, siblings := treeEdges(depth)
	fs := make([]*term.Fact, 0, len(parents)+len(siblings))
	for _, e := range parents {
		fs = append(fs, term.NewFact("p", term.Atom(nodeName(e[0])), term.Atom(nodeName(e[1]))))
	}
	for _, e := range siblings {
		fs = append(fs, term.NewFact("siblings", term.Atom(nodeName(e[0])), term.Atom(nodeName(e[1]))))
	}
	return shuffledDB(fs, seed)
}

func shuffledDB(fs []*term.Fact, seed int64) *store.DB {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	db := store.NewDB()
	db.LoadFacts(fs, store.LoadOpts{})
	return db
}

// opKind says how an op reaches the program.
type opKind uint8

const (
	opQuery   opKind = iota // query text: POST /db/t/query, or Materialized.QueryOpts
	opExec                  // prepared handle: POST /db/t/prepared/{q}, or ExecCtx
	opAssert                // single-fact insert transaction
	opRetract               // single-fact delete transaction
)

func (k opKind) write() bool { return k == opAssert || k == opRetract }

// Query shapes over the tree program.  A shape fixes predicate and binding
// pattern, the key supplies the bound constant.
type shape uint8

const (
	shapeDesc  shape = iota // a(n, W): descendants of n
	shapeAnc                // a(W, n): ancestors of n
	shapeSG                 // sg(n, W): n's generation
	shapeYoung              // young(n, S): n's generation as one set, if n is childless
	shapeKids               // kids(n, S): n's children as one set
	numShapes
)

var shapeFmt = [numShapes]string{"a(%s, W)", "a(W, %s)", "sg(%s, W)", "young(%s, S)", "kids(%s, S)"}

// shapeHandle is the name a shape is prepared under on the server.
var shapeHandle = [numShapes]string{"desc", "anc", "sg", "young", "kids"}

func (s shape) text(key string) string { return fmt.Sprintf(shapeFmt[s], key) }

// op is one generated operation.
type op struct {
	kind  opKind
	shape shape  // reads
	node  int    // reads: the key's node number
	text  string // reads: query text; writes: fact text "p(n600, x0_17)."
	arg   string // reads: the key as a term, for prepared execution
}

func (o op) String() string {
	return fmt.Sprintf("%d %d %d %s %s", o.kind, o.shape, o.node, o.text, o.arg)
}

func readOp(kind opKind, s shape, node int) op {
	key := nodeName(node)
	return op{kind: kind, shape: s, node: node, text: s.text(key), arg: key}
}

// stream is one client's endless op sequence.  Reads cycle through a
// seed-shuffled list of (shape, key, route) combinations without
// replacement, so every full cycle does exactly the same work whatever the
// seed; writes, when the workload has them, replace every writeEvery-th op
// and alternate attach / detach of one extra leaf.
type stream struct {
	reads      []op
	next       int
	writeEvery int // 0: read-only
	n          int // ops handed out
	client     int
	leaves     []int // attach points, seed-shuffled
	attached   string
	writes     int
}

func (s *stream) nextOp() op {
	s.n++
	if s.writeEvery > 0 && s.n%s.writeEvery == 0 {
		return s.nextWrite()
	}
	o := s.reads[s.next]
	s.next++
	if s.next == len(s.reads) {
		s.next = 0
	}
	return o
}

// nextWrite attaches a fresh leaf under a bottom-level node, or detaches
// the one this client attached last, alternately: after an even number of
// writes the client has left the tree as it found it.
func (s *stream) nextWrite() op {
	if s.attached != "" {
		o := op{kind: opRetract, text: s.attached}
		s.attached = ""
		return o
	}
	parent := s.leaves[s.writes%len(s.leaves)]
	s.writes++
	s.attached = fmt.Sprintf("p(%s, x%d_%d).", nodeName(parent), s.client, s.writes)
	return op{kind: opAssert, text: s.attached}
}

// streamSeed spreads (seed, client) over the generator's seed space.
func streamSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client)*7919 + 1 }

// levelNodes lists the nodes of one tree level.
func levelNodes(level int) []int {
	out := make([]int, 0, 1<<level)
	for i := 1 << level; i < 1<<(level+1); i++ {
		out = append(out, i)
	}
	return out
}

// hotKeys picks the serve-hot key set: four nodes from each of levels 2..9,
// so every seed's set has the same answer sizes (the tree is symmetric
// within a level) and only the identity of the nodes changes.
func hotKeys(seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	var keys []int
	for level := 2; level <= treeDepth; level++ {
		nodes := levelNodes(level)
		r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		keys = append(keys, nodes[:4]...)
	}
	return keys
}

// newStream builds client c's stream for a tree workload.
func newStream(w string, seed int64, client int) *stream {
	r := rand.New(rand.NewSource(streamSeed(seed, client)))
	s := &stream{client: client}
	all := make([]int, 0, treeNodes(treeDepth))
	for i := 1; i <= treeNodes(treeDepth); i++ {
		all = append(all, i)
	}
	switch w {
	case "serve-hot":
		// 32 keys x 2 shapes = 64 cache entries; each by both routes.
		for _, k := range hotKeys(seed) {
			for _, sh := range []shape{shapeDesc, shapeYoung} {
				s.reads = append(s.reads, readOp(opQuery, sh, k), readOp(opExec, sh, k))
			}
		}
	case "serve-mixed":
		// 1 023 keys x 4 shapes = 4 092 entries, far beyond the cache.
		for _, k := range all {
			for _, sh := range []shape{shapeDesc, shapeAnc, shapeYoung, shapeKids} {
				s.reads = append(s.reads, readOp(opQuery, sh, k))
			}
		}
		s.writeEvery = 10
		s.leaves = levelNodes(treeDepth)
		r.Shuffle(len(s.leaves), func(i, j int) { s.leaves[i], s.leaves[j] = s.leaves[j], s.leaves[i] })
	case "embed-magic":
		for _, k := range all {
			for _, sh := range []shape{shapeDesc, shapeSG, shapeYoung} {
				s.reads = append(s.reads, readOp(opExec, sh, k))
			}
		}
	default:
		panic("no op stream for workload " + w)
	}
	r.Shuffle(len(s.reads), func(i, j int) { s.reads[i], s.reads[j] = s.reads[j], s.reads[i] })
	return s
}

// batchProgram is one whole-model program of the batch-model workload.
type batchProgram struct {
	name  string
	rules string
	edb   *store.DB
	// want is the frozen per-predicate size of the minimal model.  The
	// seed relabels nodes and reorders facts but never changes the shape
	// of the input, so the counts hold for every seed.  Nil: unchecked.
	want map[string]int
}

// relabel maps node number i to a seed-dependent name with the given
// prefix: a permutation, so the input stays isomorphic.
type relabel struct {
	prefix string
	perm   []int
}

func newRelabel(prefix string, n int, r *rand.Rand) relabel {
	return relabel{prefix: prefix, perm: r.Perm(n)}
}

func (l relabel) atom(i int) term.Term { return term.Atom(fmt.Sprintf("%s%d", l.prefix, l.perm[i])) }

// shapeRand is the generator for the SHAPE of the random batch inputs.  It
// is seeded with a constant: the workload seed must not change how much
// work a program is, only how its input is labelled and ordered.
func shapeRand(salt int64) *rand.Rand { return rand.New(rand.NewSource(0x1d11 + salt)) }

const (
	ancRules = `ancestor(X, Y) <- parent(X, Y).
ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
`
	exclRules = ancRules + `excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
`
	suppliesRules = `supplies(S, <P>) <- sp(S, P).
`
	partcostRules = `part(P, <S>) <- p(P, S).
tc({X}, C) <- q(X, C).
tc({X}, C) <- part(X, S), tc(S, C).
tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
result(X, C) <- tc(S, C), member(X, S), S = {X}.
`
	joinRules = `triangle(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z).
sel(G, P) <- dim(G, T), wide(G, T, P, W).
`
)

// batchPrograms generates the six batch-model inputs.
func batchPrograms(seed int64) []batchProgram {
	r := rand.New(rand.NewSource(seed))
	return []batchProgram{
		genAnc(r), genYoung(seed), genExcl(r), genSupplies(r), genPartcost(r), genJoin(r),
	}
}

// genAnc: §1 ancestor over a layered random DAG.
func genAnc(r *rand.Rand) batchProgram {
	sr := shapeRand(1)
	lab := newRelabel("d", ancLayers*ancWidth, r)
	var fs []*term.Fact
	for l := 0; l+1 < ancLayers; l++ {
		for i := 0; i < ancWidth; i++ {
			for k := 0; k < 2; k++ {
				j := sr.Intn(ancWidth)
				fs = append(fs, term.NewFact("parent", lab.atom(l*ancWidth+i), lab.atom((l+1)*ancWidth+j)))
			}
		}
	}
	return batchProgram{name: "anc", rules: ancRules, edb: shuffledDB(fs, r.Int63()),
		want: frozen(map[string]int{"parent": 5593, "ancestor": 173602})}
}

// genYoung: the §6 program as a whole model, on the same tree the serving
// workloads use.
func genYoung(seed int64) batchProgram {
	return batchProgram{name: "young", rules: treeRules, edb: treeDB(treeDepth, seed),
		want: frozen(map[string]int{"p": 1022, "siblings": 1022, "a": 8194, "sg": 348502,
			"hasdesc": 511, "young": 512, "kids": 511})}
}

// genExcl: §1 excl_ancestor (stratified negation) over parent chains;
// person holds every node.
func genExcl(r *rand.Rand) batchProgram {
	n := exclChains * exclLen
	lab := newRelabel("c", n, r)
	var fs []*term.Fact
	for c := 0; c < exclChains; c++ {
		for i := 0; i+1 < exclLen; i++ {
			fs = append(fs, term.NewFact("parent", lab.atom(c*exclLen+i), lab.atom(c*exclLen+i+1)))
		}
	}
	for i := 0; i < n; i++ {
		fs = append(fs, term.NewFact("person", lab.atom(i)))
	}
	return batchProgram{name: "excl", rules: exclRules, edb: shuffledDB(fs, r.Int63()),
		want: frozen(map[string]int{"parent": 138, "person": 144, "ancestor": 1656, "excl_ancestor": 212520})}
}

// genSupplies: §1 grouping over a large flat relation.
func genSupplies(r *rand.Rand) batchProgram {
	slab := newRelabel("s", supSuppliers, r)
	plab := newRelabel("t", supSuppliers*supParts/4, r)
	pool := len(plab.perm)
	fs := make([]*term.Fact, 0, supSuppliers*supParts)
	for s := 0; s < supSuppliers; s++ {
		// supParts consecutive parts from a per-supplier offset: distinct
		// within a supplier, overlapping across suppliers.
		off := (s * 7) % pool
		for k := 0; k < supParts; k++ {
			fs = append(fs, term.NewFact("sp", slab.atom(s), plab.atom((off+k)%pool)))
		}
	}
	return batchProgram{name: "supplies", rules: suppliesRules, edb: shuffledDB(fs, r.Int63()),
		want: frozen(map[string]int{"sp": 200000, "supplies": 4000})}
}

// genPartcost: §1 part-cost (grouping, partition, recursion over sets) on
// one bill of material.  Parts are integers, as in the paper.
func genPartcost(r *rand.Rand) batchProgram {
	perm := r.Perm(pcFanout + 1)
	part := func(i int) term.Term { return term.Int(int64(perm[i] + 1)) }
	var fs []*term.Fact
	for k := 1; k <= pcFanout; k++ {
		fs = append(fs, term.NewFact("p", part(0), part(k)))
		fs = append(fs, term.NewFact("q", part(k), term.Int(int64(10+k))))
	}
	return batchProgram{name: "partcost", rules: partcostRules, edb: shuffledDB(fs, r.Int63()),
		want: frozen(map[string]int{"p": 9, "q": 9, "part": 1, "tc": 1023, "result": 10})}
}

// genJoin: a triangle join over a random graph plus a wide selective join
// (a small dimension table probing a wide fact table on two columns),
// about 200 k rows in all.
func genJoin(r *rand.Rand) batchProgram {
	sr := shapeRand(2)
	nlab := newRelabel("v", joinNodes, r)
	glab := newRelabel("g", joinGroups, r)
	var fs []*term.Fact
	for i := 0; i < joinNodes; i++ {
		for k := 0; k < joinDegree; k++ {
			fs = append(fs, term.NewFact("e", nlab.atom(i), nlab.atom(sr.Intn(joinNodes))))
		}
	}
	tag := func(t int) term.Term { return term.Atom(fmt.Sprintf("tag%d", t)) }
	for i := 0; i < joinWide; i++ {
		fs = append(fs, term.NewFact("wide", glab.atom(i%joinGroups), tag((i/joinGroups)%joinTags),
			term.Int(int64(i)), term.Int(int64(i%97))))
	}
	for i := 0; i < joinDimRows; i++ {
		fs = append(fs, term.NewFact("dim", glab.atom((i*2)%joinGroups), tag(i%joinTags)))
	}
	return batchProgram{name: "join", rules: joinRules, edb: shuffledDB(fs, r.Int63()),
		want: frozen(map[string]int{"e": 17982, "wide": 180000, "dim": 300, "triangle": 215, "sel": 11252})}
}
