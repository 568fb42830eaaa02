package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ldl1/internal/store"
)

// Load shape, the same for every workload and every run.
const (
	numClients  = 2 // closed loop: two callers, two connections, each waiting for its reply
	numSegments = 5 // back-to-back measured segments sharing warm state; values are medians over them
	warmFrac    = 0.15

	// setup_s is the median of repeated set-ups: at least minSetupReps, and
	// more of a cheap one (the embedded engine sets up in about a
	// millisecond) until setupFrac of --seconds has been spent on them.
	minSetupReps = 3
	maxSetupReps = 201
	setupFrac    = 0.025

	// The fewest samples of a class a segment may hold for its tail
	// percentile to be reported: the read p99 and the write p95 then have
	// ten samples beyond them.  Applied to full-length runs only; a smoke
	// run is too short to meet them.
	readsFloor   = 1000
	writesFloor  = 200
	floorSeconds = 10
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func (c config) warm() time.Duration    { return secs(c.seconds * warmFrac) }
func (c config) measure() time.Duration { return secs(c.seconds) }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // sample counts and spreads, for the human report
	errs  []string // the first few failures
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// harness is the result as the harness wants it: with exactly the
// end-to-end metrics of an untraced run, or the per-layer ones of a traced
// run.  An untraced run measures the demoted metrics too; those are for
// the report and for -aa.
func (r *result) harness(traced bool) *result {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	out := *r
	out.Metrics = map[string]metric{}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			out.Metrics[d.Name] = m
		}
	}
	return &out
}

func (r *result) set(name string, v float64) {
	def, ok := metricDefs[name]
	if !ok {
		panic("metric not in the manifest: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: def.Unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) absorb(lr *loopResult) {
	r.Attempted += lr.attempted
	r.Failed += lr.failed
	r.errs = append(r.errs, lr.errs...)
}

// heapLiveMB is the live heap after two full collections: the second
// frees what the first one's finalizers and emptied pools released.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// world is a tree workload set up and ready for load.
type world struct {
	cfg     config
	src     string    // tree program text
	edb     *store.DB // the same EDB prebuilt, for the embedded route
	streams []*stream
	tg      target
	sv      *served   // nil on the embedded route
	setups  []float64 // seconds, one per repetition
}

func servedWorkload(w string) bool { return w == "serve-hot" || w == "serve-mixed" }

// buildWorld generates the inputs and sets the workload up repeatedly,
// keeping the last.
func buildWorld(cfg config, tr *tracer) (*world, error) {
	w := &world{cfg: cfg, src: treeSource(treeDepth, cfg.seed), edb: treeDB(treeDepth, cfg.seed)}
	for c := 0; c < numClients; c++ {
		w.streams = append(w.streams, newStream(cfg.workload, cfg.seed, c))
	}
	var spent float64
	for i := 0; i < minSetupReps || (spent < cfg.seconds*setupFrac && i < maxSetupReps); i++ {
		w.close()
		// Garbage from input generation, or from the set-up before, is not
		// this set-up's to collect: the embedded engine sets up in 0.4 ms,
		// and a collection cycle that starts inside it adds half of that.
		runtime.GC()
		var d time.Duration
		var err error
		if servedWorkload(cfg.workload) {
			w.sv, d, err = startServed(w.src, numClients, tr)
			w.tg = w.sv
		} else {
			w.tg, d, err = startEmbedded(w.edb)
		}
		if err != nil {
			return nil, err
		}
		w.setups = append(w.setups, d.Seconds())
		spent += d.Seconds()
	}
	return w, nil
}

func (w *world) close() {
	if w.sv != nil {
		w.sv.close()
		w.sv = nil
	}
	w.tg = nil
}

// check is the per-op oracle.  On serve-mixed the tree changes under the
// reads, so only status and count == len(rows) are checked per op (by the
// target) and the oracle is applied after quiescing.
func (w *world) check() func(o op, rows int) error {
	if w.cfg.workload == "serve-mixed" {
		return nil
	}
	return oracleCheck
}

// oracleCheck compares a read's row count with the oracle's.
func oracleCheck(o op, rows int) error {
	if want := wantRows(o.shape, o.node, treeDepth); rows != want {
		return fmt.Errorf("%d rows, oracle says %d", rows, want)
	}
	return nil
}

// checkedRead issues one read outside the load loop and counts it, and
// any failure or oracle mismatch, in r.
func checkedRead(ctx context.Context, tg target, o op, r *result, what string) {
	r.Attempted++
	rows, err := tg.do(ctx, reqCounter.Add(1), o)
	if err == nil {
		err = oracleCheck(o, rows)
	}
	if err != nil && ctx.Err() == nil {
		r.fail("%s, %s: %v", what, o.text, err)
	}
}

// quiesce detaches every leaf still attached, then checks that the model
// is back to its initial size and that sampled reads match the oracle.
func (w *world) quiesce(ctx context.Context, r *result) {
	if w.sv == nil {
		return
	}
	for _, st := range w.streams {
		if st.attached != "" {
			r.Attempted++
			if _, err := w.sv.do(ctx, reqCounter.Add(1), st.nextWrite()); err != nil {
				r.fail("quiesce: %v", err)
			}
		}
	}
	r.Attempted++
	if st, _, err := w.sv.stats(ctx); err != nil {
		r.fail("stats: %v", err)
	} else if want := treeModelFacts(treeDepth); st.ModelFacts != want {
		r.fail("model has %d facts after quiescing, want %d", st.ModelFacts, want)
	}
	rnd := rand.New(rand.NewSource(w.cfg.seed))
	for i := 0; i < 200; i++ {
		o := readOp(opQuery, []shape{shapeDesc, shapeAnc, shapeYoung, shapeKids}[rnd.Intn(4)], 1+rnd.Intn(treeNodes(treeDepth)))
		checkedRead(ctx, w.sv, o, r, "after quiescing")
	}
}

// settleCache refills the answer cache with a fixed set of answers — the
// descendants of nodes 1..128, by the workload's own route — so that the
// live heap measured next does not depend on which answers the run
// happened to cache last.  (The embedded engine's heap is small enough for
// that to be a sixth of it.)
func (w *world) settleCache(ctx context.Context, r *result) {
	kind := w.streams[0].reads[0].kind
	for node := 1; node <= 128 && node <= treeNodes(treeDepth); node++ {
		checkedRead(ctx, w.tg, readOp(kind, shapeDesc, node), r, "settling the cache")
	}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// thin reports whether a full-length run's smallest segment holds too
// few samples of a class for its tail percentile.  Such a percentile is
// withheld, with a note, rather than printed thin; the run itself goes on,
// because a slow host must not turn a healthy run into a failed one.
func thin(cfg config, fewest, floor int) bool {
	return cfg.seconds >= floorSeconds && fewest < floor
}

// runTree is the untraced run of a tree workload: the end-to-end numbers,
// and the demoted time-valued ones beside them for the report and for A/A.
func runTree(ctx context.Context, cfg config) (*result, error) {
	// heap_live_mb is what this run adds to the live heap.  A process that
	// has run other workloads before (-aa, the all-workloads mode) still
	// holds what they left in the program's process-wide tables.
	heap0 := heapLiveMB()
	w, err := buildWorld(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := newResult()
	lr := runClosed(ctx, w.tg, w.streams, w.check(), nil, cfg.warm(), cfg.measure())
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	r.absorb(lr)
	w.quiesce(ctx, r)
	w.settleCache(ctx, r)
	heap := heapLiveMB() - heap0
	segs := segments(lr, cfg.warm(), cfg.measure(), numSegments)
	ops := 0
	for _, s := range segs {
		ops += s.ops
	}
	if ops == 0 {
		return nil, errors.New("no op completed in the measured window")
	}
	r.set("setup_s", median(w.setups))
	r.set("alloc_kb_per_op", lr.allocKB/float64(ops))
	r.set("heap_live_mb", heap)
	opsS, p50, p99 := over(segs, func(s segStats) float64 { return s.opsS }),
		over(segs, func(s segStats) float64 { return s.readP50 }),
		over(segs, func(s segStats) float64 { return s.readP99 })
	reads, writes := minOf(segs, func(s segStats) int { return s.reads }), minOf(segs, func(s segStats) int { return s.writes })
	r.set("ops_s", median(opsS))
	r.set("read_p50_ms", median(p50))
	if thin(cfg, reads, readsFloor) {
		r.note("read_p99_ms withheld: a segment holds %d reads, the floor is %d", reads, readsFloor)
	} else {
		r.set("read_p99_ms", median(p99))
	}
	if writes > 0 {
		r.set("write_p50_ms", median(over(segs, func(s segStats) float64 { return s.writeP50 })))
		if thin(cfg, writes, writesFloor) {
			r.note("write_p95_ms withheld: a segment holds %d writes, the floor is %d", writes, writesFloor)
		} else {
			r.set("write_p95_ms", median(over(segs, func(s segStats) float64 { return s.writeP95 })))
		}
	}
	r.set("cpu_ms_per_op", lr.cpuMS/float64(ops))
	r.note("%d ops in %d segments of %.1fs (fewest per segment: %d reads, %d writes); segment IQR/median: ops_s %.3f, read_p50_ms %.3f, read_p99_ms %.3f; setup_s over %d set-ups",
		ops, len(segs), cfg.seconds/numSegments, reads, writes, iqrFrac(opsS), iqrFrac(p50), iqrFrac(p99), len(w.setups))
	r.Correct = r.Failed == 0
	return r, nil
}

func minOf(segs []segStats, f func(segStats) int) int {
	m := math.MaxInt
	for _, s := range segs {
		if v := f(s); v < m {
			m = v
		}
	}
	return m
}

// runBatch is the untraced run of batch-model: one warm pass, then passes
// until the measured time is used up (three at least).  A pass — all six
// programs, each from a fresh engine — is this workload's op.
func runBatch(ctx context.Context, cfg config) (*result, error) {
	heap0 := heapLiveMB() // as in runTree
	progs := batchPrograms(cfg.seed)
	r := newResult()
	runPass(ctx, progs, nil) // warm: page in the inputs, size the heap
	var passes [][]evalRun
	cpu0, mem0, start := cpuNow(), memNow(), time.Now()
	for len(passes) < 3 || time.Since(start) < cfg.measure() {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		pass := runPass(ctx, progs, nil)
		for _, er := range pass {
			r.Attempted++
			if er.err != nil {
				r.fail("%v", er.err)
			}
		}
		if len(passes) > 0 {
			// Only the newest pass keeps its engines' models, so the live
			// heap is one pass's worth, as a whole-model user would hold.
			for i := range passes[len(passes)-1] {
				passes[len(passes)-1][i].model = nil
			}
		}
		passes = append(passes, pass)
	}
	elapsed, cpu, mem1 := time.Since(start), cpuNow()-cpu0, memNow()
	heap := heapLiveMB() - heap0 // the last pass's engines and models are still referenced
	runtime.KeepAlive(passes)

	var setups, evals []float64 // per pass: Σ New+AddDB, Σ Run; seconds
	for _, pass := range passes {
		var load, run int64
		for _, er := range pass {
			load += er.loadNS
			run += er.runNS
		}
		setups = append(setups, float64(load)/perS)
		evals = append(evals, float64(run)/perS)
	}
	n := float64(len(passes))
	r.set("setup_s", median(setups))
	r.set("alloc_kb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/n)
	r.set("heap_live_mb", heap)
	r.set("eval_s", median(evals))
	r.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/n)
	r.note("%d passes of %d programs in %.1fs; pass IQR/median: eval_s %.3f, setup_s %.3f", len(passes), len(progs), elapsed.Seconds(), iqrFrac(evals), iqrFrac(setups))
	r.Correct = r.Failed == 0
	return r, nil
}

// runOne runs one workload once, untraced or traced.
func runOne(ctx context.Context, cfg config) (*result, error) {
	switch {
	case cfg.trace:
		return runTraced(ctx, cfg)
	case cfg.workload == "batch-model":
		return runBatch(ctx, cfg)
	default:
		return runTree(ctx, cfg)
	}
}
