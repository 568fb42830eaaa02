package main

// Part 3 of the traced run: layer replay and the store and term probes.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// timed runs f and returns the seconds it took.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// medianOf3 times f three times and returns the median in seconds.
func medianOf3(f func()) float64 {
	return median([]float64{timed(f), timed(f), timed(f)})
}

// parseFacts turns fact-list text into facts, the way the view does.
func parseFacts(src string) ([]*term.Fact, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	fs := make([]*term.Fact, 0, len(unit.Program.Rules))
	for _, r := range unit.Program.Rules {
		fs = append(fs, term.NewFact(r.Head.Pred, r.Head.Args...))
	}
	return fs, nil
}

// replays re-issues the traced ops at each lower layer.
func (t *tracedRun) replays() error {
	mixed := t.mixed
	if n := t.replayCap(150); len(mixed) > n {
		mixed = mixed[:n]
	}
	reads := readsOf(mixed)
	if len(reads) == 0 {
		return errors.New("nothing to replay: the traced pass issued no read")
	}
	writes := t.writes
	if n := t.replayCap(5); len(writes) > n {
		writes = writes[:n]
	}
	writes = pairedWrites(writes)
	r := t.r

	// parser and analyze: the program, then every read's and write's text.
	var unit *parser.Unit
	var err error
	r.set("parser.program_ms", 1e3*medianOf3(func() { unit, err = parser.Parse(t.src) }))
	if err != nil {
		return err
	}
	prog := unit.Program
	r.set("analyze.vet_ms", 1e3*medianOf3(func() { analyze.Program(prog, nil, analyze.Options{}) }))
	queries := make([]parser.Query, len(reads))
	var parseQ, parseF timings
	for i, io := range reads {
		t0 := time.Now()
		queries[i], err = parser.ParseQuery(io.op.text)
		t1 := time.Now()
		t.tr.add(io.req, layerParser, t0, t1, err == nil)
		if err != nil {
			return err
		}
		parseQ.add(t1.Sub(t0))
	}
	facts := make([][]*term.Fact, len(writes))
	for i, io := range writes {
		t0 := time.Now()
		facts[i], err = parseFacts(io.op.text)
		if err != nil {
			return err
		}
		parseF.add(time.Since(t0))
	}
	r.set("parser.query_p50_us", parseQ.p(0.50, perUS))
	r.set("parser.facts_p50_us", parseF.p(0.50, perUS))

	// view: the root package's materialized view, both read routes, and the
	// writes in their place so invalidation happens as it did.
	eng, err := ldl1.New(t.src)
	if err != nil {
		return err
	}
	var mv *ldl1.Materialized
	r.set("view.materialize_s", timed(func() { mv, err = eng.Materialize() }))
	if err != nil {
		return err
	}
	var pv [numShapes]*ldl1.PreparedView
	for s := shape(0); s < numShapes; s++ {
		if pv[s], err = mv.Prepare(s.text("n1")); err != nil {
			return err
		}
	}
	bothRoutes := false
	for _, io := range reads {
		if io.op.kind != reads[0].op.kind {
			bothRoutes = true
		}
	}
	var viewQ, viewE timings
	rows, nreads := 0, 0
	for i, io := range mixed {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		o := io.op
		byText := o.kind == opQuery
		if !bothRoutes {
			byText = i%2 == 0 // a one-route stream: replay half of it by the other route
		}
		var ans *ldl1.Answers
		t0 := time.Now()
		switch {
		case o.kind == opAssert:
			_, err = mv.AssertCtx(t.ctx, o.text)
		case o.kind == opRetract:
			_, err = mv.RetractCtx(t.ctx, o.text)
		case byText:
			ans, err = mv.QueryOpts(t.ctx, o.text, ldl1.ReadOpts{})
		default:
			ans, err = pv[o.shape].ExecOpts(t.ctx, ldl1.ReadOpts{}, ldl1.Sym(o.arg))
		}
		t1 := time.Now()
		t.tr.add(io.req, layerView, t0, t1, err == nil)
		if err != nil {
			return fmt.Errorf("view replay %s: %w", o.text, err)
		}
		if ans != nil {
			rows += ans.Len()
			nreads++
			if byText {
				viewQ.add(t1.Sub(t0))
			} else {
				viewE.add(t1.Sub(t0))
			}
		}
	}
	if len(viewQ) == 0 || len(viewE) == 0 {
		return errors.New("view replay too short to cover both read routes")
	}
	r.set("view.query_p50_us", viewQ.p(0.50, perUS))
	r.set("view.query_p99_us", viewQ.p(0.99, perUS))
	r.set("view.exec_p50_us", viewE.p(0.50, perUS))
	r.set("view.rows_mean", float64(rows)/float64(nreads))
	viewHits, viewMisses, _, _ := mv.CacheCounters()

	getNS := cacheGetNS(t.own)
	r.set("qcache.get_ns", getNS)

	// eval.solve: what a read costs when the cache misses — a solve on the
	// model snapshot.  The snapshot is a from-scratch evaluation, timed
	// once as the yardstick for incremental maintenance below.
	var model *store.DB
	scratchS := timed(func() { model, err = eval.Eval(prog, store.NewDB(), eval.Options{Ctx: t.ctx}) })
	if err != nil {
		return err
	}
	var solve timings
	for i, io := range reads {
		t0 := time.Now()
		_, err = eval.SolveLimitsCtx(t.ctx, queries[i].Body, model, eval.SolveLimits{})
		t1 := time.Now()
		t.tr.add(io.req, layerSolve, t0, t1, err == nil)
		if err != nil {
			return err
		}
		solve.add(t1.Sub(t0))
	}
	r.set("eval.solve_p50_us", solve.p(0.50, perUS))
	below := solve.p(0.50, perUS) // what the median read pays below the view
	if viewHits >= viewMisses {
		below = getNS / 1e3
	}
	r.set("view.self_p50_us", viewQ.p(0.50, perUS)-parseQ.p(0.50, perUS)-below)
	r.set("server.self_p50_ms", r.Metrics["server.handler_p50_ms"].Value-mean([]float64{viewQ.p(0.50, perMS), viewE.p(0.50, perMS)}))
	r.note("replayed %d ops: %d reads, %d writes; the replay view's own cache: %d hits, %d misses", len(mixed), len(reads), len(writes), viewHits, viewMisses)

	// store.clone: a full copy of the model, what a writer would pay were
	// snapshots not copy-on-write.
	var clone timings
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		c := model.Clone()
		t1 := time.Now()
		runtime.KeepAlive(c)
		t.tr.add(reqCounter.Add(1), layerClone, t0, t1, true)
		clone.add(t1.Sub(t0))
	}
	r.set("store.clone_ms", clone.p(0.50, perMS))

	if err := t.incrReplay(prog, writes, facts, scratchS); err != nil {
		return err
	}
	return t.magicReplay(readsOf(t.own))
}

// pairedWrites keeps the attach transactions whose detach is also in the
// list, and those detaches: a traced pass starts and ends mid-stream, and
// a replay must leave the tree as it found it.
func pairedWrites(writes []issuedOp) []issuedOp {
	attached, paired := map[string]bool{}, map[string]bool{}
	for _, io := range writes {
		switch {
		case io.op.kind == opAssert:
			attached[io.op.text] = true
		case attached[io.op.text]:
			paired[io.op.text] = true
		}
	}
	var out []issuedOp
	for _, io := range writes {
		if paired[io.op.text] {
			out = append(out, io)
		}
	}
	return out
}

// Predicate and adornment of each query shape, as the view keys its cache.
var (
	shapePred  = [numShapes]string{"a", "a", "sg", "young", "kids"}
	shapeAdorn = [numShapes]string{"bf", "fb", "bf", "bf", "bf"}
)

// cacheKey is the answer-cache key the view would use for a read.
func cacheKey(o op) qcache.Key {
	return qcache.Key{Pred: shapePred[o.shape], Adorn: shapeAdorn[o.shape],
		Consts: qcache.ConstsKey([]term.Term{term.Atom(o.arg)})}
}

// cacheGetNS times the answer cache's lookup alone: the ops' keys through
// a benchmark-owned cache, a miss filling it and a write emptying it.  The
// hit ratio, misses, evictions and entries are not taken from here but
// from the program's own counters (cacheMetrics, engineCache).
func cacheGetNS(mixed []issuedOp) float64 {
	c := qcache.New(128)
	cone := map[string]bool{"p": true}
	var get timings
	for _, io := range mixed {
		if io.op.kind.write() {
			c.Invalidate("p")
			continue
		}
		k := cacheKey(io.op)
		t0 := time.Now()
		_, ok := c.Get(k)
		get.add(time.Since(t0))
		if !ok {
			c.PutAt(k, &qcache.Entry{Cone: cone}, c.Gen())
		}
	}
	return get.mean(1)
}

// cacheCounters are an answer cache's cumulative counters.
type cacheCounters struct{ hits, misses, evictions, entries int }

// cacheNow reads the served view's answer-cache counters from GET /stats.
func (t *tracedRun) cacheNow() cacheCounters {
	st, _, err := t.sv.stats(t.ctx)
	t.r.Attempted++
	if err != nil {
		if t.ctx.Err() == nil {
			t.r.fail("stats: %v", err)
		}
		return cacheCounters{}
	}
	return cacheCounters{st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries}
}

// cacheMetrics reports what the served view's answer cache did between
// two readings of the server's own counters.  With ratio false it leaves
// hit_ratio and misses alone: embed-magic has them from its engine.
func (t *tracedRun) cacheMetrics(c0, c1 cacheCounters, ratio bool) {
	if ratio {
		hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
		t.r.set("qcache.hit_ratio", float64(hits)/float64(hits+misses))
		t.r.set("qcache.misses", float64(misses))
	}
	t.r.set("qcache.evictions", float64(c1.evictions-c0.evictions))
	t.r.set("qcache.entries_end", float64(c1.entries))
}

// engineCache replays embed-magic's own reads, in the order they were
// issued, on a second engine that counts its answer-cache hits (the
// counter sink is not safe under two clients, so the workload's engine
// has none), and reports the engine's hit ratio.
func (t *tracedRun) engineCache(reads []issuedOp) error {
	if n := t.replayCap(25); len(reads) > n {
		reads = reads[:n]
	}
	var st ldl1.Stats
	eng, err := ldl1.New(treeRules, ldl1.WithMagic(true), ldl1.WithStats(&st))
	if err != nil {
		return err
	}
	eng.AddDB(t.edb)
	var pq [numShapes]*ldl1.PreparedQuery
	for _, io := range reads {
		o := io.op
		if pq[o.shape] == nil {
			if pq[o.shape], err = eng.Prepare(o.shape.text("n1")); err != nil {
				return err
			}
		}
		if _, err := pq[o.shape].ExecCtx(t.ctx, ldl1.Sym(o.arg)); err != nil {
			return fmt.Errorf("engine cache replay %s: %w", o.text, err)
		}
	}
	t.r.set("qcache.hit_ratio", float64(st.CacheHits)/float64(len(reads)))
	t.r.set("qcache.misses", float64(len(reads)-st.CacheHits))
	t.r.note("engine answer cache: %d hits in %d replayed reads", st.CacheHits, len(reads))
	return nil
}

// incrReplay applies the write transactions directly to the incremental
// maintenance layer.
func (t *tracedRun) incrReplay(prog *ast.Program, writes []issuedOp, facts [][]*term.Fact, scratchS float64) error {
	var st eval.Stats
	m, err := incr.New(prog, store.NewDB(), incr.Options{Stats: &st})
	if err != nil {
		return err
	}
	before := st
	var apply timings
	for i, io := range writes {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		tx := incr.Tx{Insert: facts[i]}
		if io.op.kind == opRetract {
			tx = incr.Tx{Retract: facts[i]}
		}
		t0 := time.Now()
		_, err := m.ApplyCtx(t.ctx, tx)
		t1 := time.Now()
		t.tr.add(io.req, layerIncr, t0, t1, err == nil)
		if err != nil {
			return fmt.Errorf("incr replay %s: %w", io.op.text, err)
		}
		apply.add(t1.Sub(t0))
	}
	t.r.Attempted++
	if got, want := m.Snapshot().Len(), treeModelFacts(treeDepth); got != want {
		t.r.fail("incr replay left %d model facts, want %d", got, want)
	}
	r := t.r
	over, rederived := st.DeletedOverestimate-before.DeletedOverestimate, st.Rederived-before.Rederived
	r.set("incr.apply_p50_ms", apply.p(0.50, perMS))
	r.set("incr.apply_p95_ms", apply.p(0.95, perMS))
	r.set("incr.deleted_overestimate", float64(over))
	r.set("incr.rederived", float64(rederived))
	r.set("incr.regrouped_classes", float64(st.RegroupedClasses-before.RegroupedClasses))
	r.set("incr.rederive_ratio", float64(rederived)/float64(over))
	r.set("incr.over_recompute", apply.p(0.50, perS)/scratchS)
	return nil
}

// magicReplay runs reads through the magic-sets pipeline with no answer
// cache in front: adorn + rewrite once per query shape, then one
// saturation of the rewritten program per read.  The EDB is the unmodified
// tree, so every answer is checked against the oracle.
func (t *tracedRun) magicReplay(reads []issuedOp) error {
	if n := t.replayCap(8); len(reads) > n {
		reads = reads[:n]
	}
	unit, err := parser.Parse(treeRules)
	if err != nil {
		return err
	}
	prepared := map[shape]*magic.Prepared{}
	var prep, exec timings
	derived, rules := 0, 0
	for _, io := range reads {
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		o := io.op
		pr := prepared[o.shape]
		if pr == nil {
			q, err := parser.ParseQuery(o.text)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if pr, err = magic.PrepareVariant(unit.Program, q, magic.Basic); err != nil {
				return err
			}
			prep.add(time.Since(t0))
			prepared[o.shape] = pr
			rules += len(pr.Rewritten.Program.Rules)
		}
		var st eval.Stats
		t0 := time.Now()
		res, err := pr.Exec(t.edb, []term.Term{term.Atom(o.arg)}, eval.Options{Stats: &st, Ctx: t.ctx})
		t1 := time.Now()
		t.tr.add(io.req, layerMagic, t0, t1, err == nil)
		if err != nil {
			return fmt.Errorf("magic replay %s: %w", o.text, err)
		}
		exec.add(t1.Sub(t0))
		derived += st.Derived
		t.r.Attempted++
		if got, want := len(res.Solutions), wantRows(o.shape, o.node, treeDepth); got != want {
			t.r.fail("magic replay %s: %d answers, oracle says %d", o.text, got, want)
		}
	}
	r := t.r
	r.set("magic.prepare_ms", prep.mean(perMS))
	r.set("magic.exec_p50_ms", exec.p(0.50, perMS))
	r.set("magic.exec_p99_ms", exec.p(0.99, perMS))
	r.set("magic.derived_per_exec", float64(derived)/float64(len(reads)))
	r.set("magic.rewritten_rules", float64(rules)/float64(len(prepared)))
	return nil
}

// heapAlloc is the live heap in bytes after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	return memNow().HeapAlloc
}

// storeProbes measures the store's bulk path on the largest batch input
// (the packed load AddDB uses, and what the first structural read costs
// after it), indexed probes and scans, and the term layer beneath.
func (t *tracedRun) storeProbes(progs []batchProgram) {
	r := t.r
	var sp []*term.Fact
	for _, bp := range progs {
		if bp.name == "supplies" {
			sp = bp.edb.Rel("sp").All()
		}
	}
	h0 := heapAlloc()
	db := store.NewDB()
	var loaded int
	r.set("store.bulk_load_s", timed(func() { loaded = db.LoadFacts(sp, store.LoadOpts{Pack: true}) }))
	h1 := heapAlloc()
	r.set("store.facts_loaded", float64(loaded))
	r.set("store.bytes_per_fact", float64(int64(h1)-int64(h0))/float64(loaded))
	rel := db.Rel("sp")
	col0 := []int{0}
	r.set("store.first_read_s", timed(func() { rel.LookupCols(col0, sp[0].Args[:1]) }))
	const probes = 2000
	found := 0
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		fs, _ := rel.LookupCols(col0, sp[(i*97)%len(sp)].Args[:1])
		found += len(fs)
	}
	r.set("store.probe_ns", float64(time.Since(t0).Nanoseconds())/probes)
	t.r.Attempted++
	if found != probes*supParts {
		r.fail("store probe found %d facts, want %d", found, probes*supParts)
	}
	runtime.KeepAlive(db)

	// A scan: the same lookup with indexes off, over the tree's p relation.
	scan := store.NewDB()
	scan.UseIndexes = false
	scan.LoadFacts(t.edb.Rel("p").All(), store.LoadOpts{})
	prel := scan.Rel("p")
	const scans = 200
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		prel.LookupCols(col0, []term.Term{term.Atom(nodeName(1 + i))})
	}
	r.set("store.scan_us", float64(time.Since(t0).Nanoseconds())/scans/perUS)

	elems := make([]term.Term, 64)
	for i := range elems {
		elems[i] = term.Atom(nodeName(i * 7 % 64))
	}
	const sets = 2000
	t0 = time.Now()
	for i := 0; i < sets; i++ {
		runtime.KeepAlive(term.NewSet(elems...))
	}
	r.set("term.set_build_us", float64(time.Since(t0).Nanoseconds())/sets/perUS)
	const hashes = 200000
	var h uint64
	t0 = time.Now()
	for i := 0; i < hashes; i++ {
		h ^= term.HashFactArgs("p", elems[i%63:i%63+2])
	}
	r.set("term.fact_hash_ns", float64(time.Since(t0).Nanoseconds())/hashes)
	runtime.KeepAlive(h)
}
