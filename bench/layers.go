package main

// The traced run: per-layer numbers, measured from outside the program.
//
// A traced run of workload W has three parts.
//
//  1. W's own pass: an untraced stretch, then the same load with spans on
//     (driver.op ⊃ wire ⊃ server.handler); the difference in throughput is
//     the tracing overhead.
//  2. The served phases every workload goes through, so that every layer
//     metric is measured in every run: on serve-hot and serve-mixed they
//     run against W's own server, elsewhere against a server started for
//     the purpose and driven by the reference stream (serve-mixed's).
//  3. Layer replay: the ops the traced pass issued are re-issued, under
//     the same request ids, directly at each lower layer's public entry
//     point — view, parser, answer cache, snapshot solve, incremental
//     apply, magic exec, store — and a layer's self time is its p50 minus
//     the p50 of the layer it calls.  Where W issued no op of the kind a
//     layer takes (serve-hot has no writes, batch-model no reads), the
//     reference stream's ops stand in, and README.md says which.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ldl1/internal/store"
)

// Shares of --seconds the phases of a traced run take.
const (
	tracedWarmFrac  = 0.10
	tracedBaseFrac  = 0.20 // untraced stretch the overhead is measured against
	tracedOwnFrac   = 0.20 // traced stretch
	tracedBurstFrac = 0.10 // reference burst
	tracedOpenFrac  = 0.10 // open-loop phase
	openRate        = 300  // ops/s
)

type tracedRun struct {
	ctx context.Context
	cfg config
	tr  *tracer
	r   *result

	src string    // tree program text
	edb *store.DB // tree EDB
	sv  *served   // W's own server, or the one started for the served phases

	genS float64 // input generation

	// What the replays re-issue.
	own    []issuedOp // the workload's own traced ops (batch-model: the reference burst's)
	mixed  []issuedOp // the ops that went over the wire: own on serve-*, else the reference burst's
	writes []issuedOp // the write transactions among them, or the reference burst's
}

// dur is a phase's length: its share of --seconds, but never so short that
// a smoke run's phase would complete no write.
func (t *tracedRun) dur(frac float64) time.Duration {
	if d := secs(t.cfg.seconds * frac); d > 50*time.Millisecond {
		return d
	}
	return 50 * time.Millisecond
}

// replayCap bounds how many ops a replay re-issues, by per-op cost class.
func (t *tracedRun) replayCap(perSecond float64) int {
	n := int(perSecond * t.cfg.seconds)
	if n < 8 {
		n = 8
	}
	return n
}

func runTraced(ctx context.Context, cfg config) (*result, error) {
	t0 := time.Now()
	t := &tracedRun{ctx: ctx, cfg: cfg, tr: newTracer(), r: newResult(),
		src: treeSource(treeDepth, cfg.seed), edb: treeDB(treeDepth, cfg.seed)}
	t.genS = time.Since(t0).Seconds()
	err := t.run()
	if t.sv != nil {
		t.sv.close()
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	r := t.r
	r.set("driver.gen_s", t.genS)
	r.set("trace.spans", float64(t.tr.count()))
	if err := t.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	r.set("rt.goroutines_end", float64(runtime.NumGoroutine()))
	for _, d := range perLayerDefs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", d.Name)
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

func (t *tracedRun) run() error {
	var progs []batchProgram
	var err error
	switch {
	case t.cfg.workload == "batch-model":
		progs, err = t.ownBatch()
	default:
		err = t.ownTree()
	}
	if err != nil {
		return err
	}
	if err := t.servedPhases(); err != nil {
		return err
	}
	if len(t.mixed) == 0 || len(t.writes) == 0 {
		return errors.New("traced pass issued nothing to replay")
	}
	if err := t.replays(); err != nil {
		return err
	}
	if progs == nil { // batch-model has measured these in its own pass
		t0 := time.Now()
		progs = batchPrograms(t.cfg.seed)
		t.r.note("batch inputs generated in %.2fs for the eval.* and store.* probes", time.Since(t0).Seconds())
		t.evalLayer(progs, runPass(t.ctx, progs, nil))
	}
	t.storeProbes(progs)
	return nil
}

// memNow reads the allocator's counters.
func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// rtMetrics reports what the runtime did between two readings, per op.
func (t *tracedRun) rtMetrics(m0, m1 runtime.MemStats, ops int) {
	r := t.r
	r.set("rt.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("rt.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/perMS)
	r.set("rt.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(ops))
	r.set("rt.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(ops))
}

// ownTree is part 1 for the three tree workloads.
func (t *tracedRun) ownTree() error {
	t0 := time.Now()
	streams := []*stream{newStream(t.cfg.workload, t.cfg.seed, 0), newStream(t.cfg.workload, t.cfg.seed, 1)}
	t.genS += time.Since(t0).Seconds()
	w := &world{cfg: t.cfg, src: t.src, edb: t.edb, streams: streams}
	if servedWorkload(t.cfg.workload) {
		if err := t.startServer(); err != nil {
			return err
		}
		w.sv, w.tg = t.sv, t.sv
	} else {
		em, _, err := startEmbedded(t.edb)
		if err != nil {
			return err
		}
		w.tg = em
	}
	base := runClosed(t.ctx, w.tg, streams, w.check(), nil, t.dur(tracedWarmFrac), t.dur(tracedBaseFrac))
	t.r.absorb(base)
	var c0 cacheCounters
	if t.sv != nil {
		t.sv.tracing.Store(true)
		c0 = t.cacheNow()
	}
	m0 := memNow()
	own := runClosed(t.ctx, w.tg, streams, w.check(), t.tr, 0, t.dur(tracedOwnFrac))
	m1 := memNow()
	t.r.absorb(own)
	if t.ctx.Err() != nil {
		return t.ctx.Err()
	}
	if t.sv != nil {
		t.cacheMetrics(c0, t.cacheNow(), true)
	} else if err := t.engineCache(own.issued); err != nil {
		return err
	}
	w.quiesce(t.ctx, t.r)

	baseSegs := segments(base, t.dur(tracedWarmFrac), t.dur(tracedBaseFrac), numSegments)
	ownSeg := segments(own, 0, t.dur(tracedOwnFrac), 1)[0]
	if ownSeg.ops == 0 {
		return errors.New("no op completed in the traced pass")
	}
	baseOps := over(baseSegs, func(s segStats) float64 { return s.opsS })
	t.loopMetrics(base, t.dur(tracedWarmFrac), t.dur(tracedBaseFrac))
	t.r.set("driver.ops", float64(ownSeg.ops))
	t.r.set("driver.reads", float64(ownSeg.reads))
	t.r.set("driver.writes", float64(ownSeg.writes))
	t.r.set("driver.seg_iqr_frac", iqrFrac(baseOps))
	t.r.set("trace.overhead_frac", 1-ownSeg.opsS/mean(baseOps))
	t.rtMetrics(m0, m1, ownSeg.ops)
	t.own = own.issued
	if t.sv != nil {
		t.mixed = own.issued
		t.serveMetrics(own)
	}
	t.writes = writesOf(own.issued)
	return nil
}

// opsOf picks the writes, or the reads, of a list of issued ops.
func opsOf(ops []issuedOp, writes bool) []issuedOp {
	var out []issuedOp
	for _, io := range ops {
		if io.op.kind.write() == writes {
			out = append(out, io)
		}
	}
	return out
}

func writesOf(ops []issuedOp) []issuedOp { return opsOf(ops, true) }
func readsOf(ops []issuedOp) []issuedOp  { return opsOf(ops, false) }

// latencies collects a loop's client-side latencies of one op class.
func latencies(lr *loopResult, writes bool) timings {
	var out timings
	for _, cs := range lr.samples {
		for _, s := range cs {
			if s.write == writes {
				out = append(out, s.latNS)
			}
		}
	}
	return out
}

// ownBatch is part 1 for batch-model: an untraced pass, then one with
// spans and the evaluator's counters read.
func (t *tracedRun) ownBatch() ([]batchProgram, error) {
	t0 := time.Now()
	progs := batchPrograms(t.cfg.seed)
	t.genS += time.Since(t0).Seconds()
	runPass(t.ctx, progs, nil) // warm
	cpu0 := cpuNow()
	t0 = time.Now()
	base := runPass(t.ctx, progs, nil)
	baseS := time.Since(t0).Seconds()
	t.r.set("cpu_ms_per_op", float64(cpuNow()-cpu0)/float64(time.Millisecond))
	m0, t0 := memNow(), time.Now()
	own := runPass(t.ctx, progs, t.tr)
	ownS, m1 := time.Since(t0).Seconds(), memNow()
	if t.ctx.Err() != nil {
		return nil, t.ctx.Err()
	}
	for _, pass := range [][]evalRun{base, own} {
		for _, er := range pass {
			t.r.Attempted++
			if er.err != nil {
				t.r.fail("%v", er.err)
			}
		}
	}
	t.r.set("driver.ops", float64(len(own)))
	t.r.set("driver.reads", 0)
	t.r.set("driver.writes", 0)
	t.r.set("driver.seg_iqr_frac", iqrFrac([]float64{baseS, ownS}))
	t.r.set("trace.overhead_frac", 1-baseS/ownS)
	t.rtMetrics(m0, m1, len(own))
	t.evalLayer(progs, own)
	return progs, nil
}

// evalLayer reports one pass's evaluation times and counters.
func (t *tracedRun) evalLayer(progs []batchProgram, pass []evalRun) {
	var derived, firings, iterations, hits, scans, reordered int
	var runNS int64
	for i, er := range pass {
		t.r.set("eval."+progs[i].name+"_s", float64(er.runNS)/perS)
		runNS += er.runNS
		derived += er.stats.Derived
		firings += er.stats.Firings
		iterations += er.stats.Iterations
		hits += er.stats.IndexHits
		scans += er.stats.FullScans
		reordered += er.stats.PlansReordered
	}
	t.r.set("eval_s", float64(runNS)/perS)
	t.r.set("eval.derived", float64(derived))
	t.r.set("eval.firings", float64(firings))
	t.r.set("eval.iterations", float64(iterations))
	t.r.set("eval.index_hits", float64(hits))
	t.r.set("eval.full_scans", float64(scans))
	t.r.set("eval.plans_reordered", float64(reordered))
	t.r.set("eval.firings_per_derived", float64(firings)/float64(derived))
	t.r.set("eval.scan_frac", float64(scans)/float64(scans+hits))
}

func (t *tracedRun) startServer() error {
	sv, d, err := startServed(t.src, numClients, t.tr)
	if err != nil {
		return err
	}
	t.sv = sv
	t.r.set("server.load_s", d.Seconds())
	return nil
}

// servedPhases is part 2: the reference burst where the workload's own
// pass left served metrics or writes unmeasured, the open-loop phase, and
// the route comparison.
func (t *tracedRun) servedPhases() error {
	own := servedWorkload(t.cfg.workload)
	if !own {
		if err := t.startServer(); err != nil {
			return err
		}
		t.sv.tracing.Store(true)
	}
	if t.cfg.workload != "serve-mixed" {
		// Clients 2 and 3, so attached leaves never share a name with the
		// workload's own.
		streams := []*stream{newStream("serve-mixed", t.cfg.seed, 2), newStream("serve-mixed", t.cfg.seed, 3)}
		c0 := t.cacheNow()
		burst := runClosed(t.ctx, t.sv, streams, nil, t.tr, t.dur(tracedBurstFrac/2), t.dur(tracedBurstFrac))
		t.r.absorb(burst)
		if !own {
			// The reference server's cache stands in: wholly on batch-model,
			// which has no cache, and for the two counters the embedded
			// engine does not expose.
			t.cacheMetrics(c0, t.cacheNow(), t.cfg.workload == "batch-model")
		}
		w := &world{cfg: t.cfg, sv: t.sv, streams: streams}
		w.quiesce(t.ctx, t.r)
		if t.ctx.Err() != nil {
			return t.ctx.Err()
		}
		if t.cfg.workload == "batch-model" { // no loop of its own
			t.loopMetrics(burst, t.dur(tracedBurstFrac/2), t.dur(tracedBurstFrac))
		}
		if !own {
			t.serveMetrics(burst)
			t.mixed = burst.issued
			if t.own == nil {
				t.own = burst.issued
			}
		}
		t.writeMetrics(burst)
		t.writes = writesOf(burst.issued)
	}

	name := "serve-mixed"
	if own {
		name = t.cfg.workload
	}
	st := newStream(name, t.cfg.seed, 4)
	t.sv.tracing.Store(false)
	open, issued := runOpen(t.ctx, t.sv, st, openRate, t.dur(tracedOpenFrac), numClients)
	t.sv.tracing.Store(true)
	// Open-loop workers may reorder an attach and its detach; retracting
	// every attached leaf once more (a no-op for those already gone)
	// restores the tree whatever the order was.
	for _, o := range issued {
		if o.kind == opAssert {
			if _, err := t.sv.cl.Retract(t.ctx, dbName, o.text); err != nil && t.ctx.Err() == nil {
				t.r.fail("open-loop cleanup: %v", err)
			}
		}
	}
	if t.ctx.Err() != nil {
		return t.ctx.Err()
	}
	t.r.Attempted += len(issued)
	t.r.Failed += open.failed
	if len(open.latMS) == 0 {
		return errors.New("open-loop phase completed no op")
	}
	t.r.set("driver.open_p50_ms", percentile(open.latMS, 0.50))
	t.r.set("driver.open_p99_ms", percentile(open.latMS, 0.99))
	t.r.set("driver.open_late_p99_ms", percentile(open.lateMS, 0.99))
	t.r.set("driver.open_achieved_frac", open.achieved)
	t.r.note("open loop: %d ops at %d/s", len(open.latMS), openRate)
	return t.routeProbe()
}

// routeProbe compares the two read routes over the wire: the same mix of
// reads, every other one by query text and the rest by prepared handle.
func (t *tracedRun) routeProbe() error {
	reads := readsOf(t.mixed)
	if n := t.replayCap(40); len(reads) > n {
		reads = reads[:n]
	}
	var text, handle timings
	for i, io := range reads {
		o := io.op
		o.kind = opQuery
		if i%2 == 1 {
			o.kind = opExec
		}
		t0 := time.Now()
		_, err := t.sv.do(t.ctx, reqCounter.Add(1), o)
		d := time.Since(t0)
		t.r.Attempted++
		if err != nil {
			if t.ctx.Err() != nil {
				return t.ctx.Err()
			}
			t.r.fail("route probe %s: %v", o.text, err)
			continue
		}
		if o.kind == opQuery {
			text.add(d)
		} else {
			handle.add(d)
		}
	}
	if len(text) == 0 || len(handle) == 0 {
		return errors.New("route probe completed no op")
	}
	t.r.set("server.exec_over_query_p50", handle.p(0.50, perUS)/text.p(0.50, perUS))
	return nil
}

// serveMetrics derives the wire and server numbers from the spans of one
// traced closed loop, and the driver's read latencies from its samples.
func (t *tracedRun) serveMetrics(lr *loopResult) {
	driver, wire, handler := t.tr.durations(layerDriver), t.tr.durations(layerWire), t.tr.durations(layerHandler)
	var rtt, wireSelf, handlerD timings
	for _, io := range readsOf(lr.issued) {
		d, okD := driver[io.req]
		w, okW := wire[io.req]
		h, okH := handler[io.req]
		if !okD || !okW || !okH {
			continue
		}
		rtt = append(rtt, w)
		wireSelf = append(wireSelf, d-h)
		handlerD = append(handlerD, h)
	}
	r := t.r
	r.set("wire.rtt_p50_ms", rtt.p(0.50, perMS))
	r.set("wire.self_p50_ms", wireSelf.p(0.50, perMS))
	r.set("wire.self_p99_ms", wireSelf.p(0.99, perMS))
	r.set("server.handler_p50_ms", handlerD.p(0.50, perMS))
	r.set("server.handler_p99_ms", handlerD.p(0.99, perMS))
	tap := t.sv.tap
	tap.mu.Lock()
	r.set("wire.req_bytes_mean", float64(tap.reqBytes)/float64(tap.n))
	r.set("wire.resp_bytes_mean", float64(tap.respBytes)/float64(tap.n))
	tap.mu.Unlock()
	r.set("wire.conns_opened", float64(tap.conns.Load()))
	_, requests, err := t.sv.stats(t.ctx)
	if err != nil {
		r.fail("stats: %v", err)
	}
	r.set("server.requests", float64(requests))
	r.set("server.http_4xx", float64(t.sv.mw.c4.Load()))
	r.set("server.http_5xx", float64(t.sv.mw.c5.Load()))

	reads := latencies(lr, false)
	r.set("driver.read_p50_ms", reads.p(0.50, perMS))
	r.set("driver.read_p99_ms", reads.p(0.99, perMS))
	r.note("served reads: %d samples; wire.self + server.handler p50 = %.4f ms of driver.read_p50_ms %.4f ms",
		len(reads), wireSelf.p(0.50, perMS)+handlerD.p(0.50, perMS), reads.p(0.50, perMS))
	if t.cfg.workload == "serve-mixed" {
		t.writeMetrics(lr)
	}
}

// loopMetrics reports the demoted throughput, read-latency and CPU metrics
// from one untraced closed loop, taken as a single segment.
func (t *tracedRun) loopMetrics(lr *loopResult, warm, measure time.Duration) {
	seg := segments(lr, warm, measure, 1)[0]
	if seg.ops == 0 {
		return // the caller's check for a missing metric reports it
	}
	t.r.set("ops_s", seg.opsS)
	t.r.set("read_p50_ms", seg.readP50)
	t.r.set("read_p99_ms", seg.readP99)
	if t.cfg.workload != "batch-model" { // which has its own CPU per pass
		t.r.set("cpu_ms_per_op", lr.cpuMS/float64(seg.ops))
	}
}

// writeMetrics reports the write transactions' latencies as the client saw
// them.
func (t *tracedRun) writeMetrics(lr *loopResult) {
	writes := latencies(lr, true)
	t.r.set("write_p50_ms", writes.p(0.50, perMS))
	t.r.set("write_p95_ms", writes.p(0.95, perMS))
	t.r.note("served writes: %d samples", len(writes))
}

// timings is a bag of nanosecond durations.
type timings []int64

func (t *timings) add(d time.Duration) { *t = append(*t, d.Nanoseconds()) }

// p is the q-th percentile in the unit of `per` nanoseconds.
func (t timings) p(q, per float64) float64 { return percentile(sortedIn(t, per), q) }

func (t timings) mean(per float64) float64 {
	var s int64
	for _, d := range t {
		s += d
	}
	return float64(s) / float64(len(t)) / per
}
