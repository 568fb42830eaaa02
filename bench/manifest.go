package main

import (
	"encoding/json"
)

// The benchmark's contract, as data.  BENCHMARK.json at the repository
// root is this table printed by `-manifest`; a test keeps the two equal.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is the measured time of one run.  92 runs must fit in 3420 s
// with their set-up, so a run may cost about 35 s all told.
const runSeconds = 20

var workloadDefs = []workloadDef{
	{"serve-hot", "ldl1d read-only over 32 hot keys (64 cache entries of 128): wire, JSON and handler do the work, the evaluator none; an evaluator gain must not show here"},
	{"serve-mixed", "ldl1d 90% reads over 4092 distinct queries (cache exceeded) + 10% single-fact write transactions: incremental maintenance, snapshot publish, invalidation beside reads"},
	{"embed-magic", "no server: one shared magic-sets engine, prepared a/sg/young over all 1023 keys (~2% cache hits): adorn/rewrite/saturate and store clone dominate, wire and incr do nothing"},
	{"batch-model", "fresh engine + bulk AddDB + whole-model Run of six paper programs (ancestor, young, excl_ancestor, supplies, partcost, joins): eval, store, term, builtin; no cache, no wire"},
}

// endToEndDefs are the gating metrics.  setup_s carries the harness's
// widest bound, as its instructions ask; the others keep the issue's 0.10.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// demotedBound is the bound the issue gave every end-to-end metric and
// said not to widen.
const demotedBound = 0.10

// demotedDefs are the issue's time-valued end-to-end metrics.  Two sets of
// runs of the same code disagree about every one of them by more than
// demotedBound on this host (AA.md), so, as the issue prescribes, they keep
// their names and move to the per-layer list, where nothing gates.  An
// untraced run still measures them over its full length, for the report
// and for -aa; a traced run reports them from its untraced stretch.
var demotedDefs = []metricDef{
	{Name: "ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "eval_s", Unit: "s", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// perLayerDefs are the demoted metrics and then the layer metrics, named
// layer.metric after this repository's modules; README.md defines each.
// They carry no bound.
var perLayerDefs = append(append([]metricDef{}, demotedDefs...), []metricDef{
	{Name: "driver.ops", Unit: "count", Better: "higher"},
	{Name: "driver.reads", Unit: "count", Better: "higher"},
	{Name: "driver.writes", Unit: "count", Better: "higher"},
	{Name: "driver.gen_s", Unit: "s", Better: "lower"},
	{Name: "driver.seg_iqr_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.open_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.open_achieved_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "wire.rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.self_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.req_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "wire.resp_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "wire.conns_opened", Unit: "count", Better: "lower"},
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.load_s", Unit: "s", Better: "lower"},
	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "server.http_4xx", Unit: "count", Better: "lower"},
	{Name: "server.http_5xx", Unit: "count", Better: "lower"},
	{Name: "server.exec_over_query_p50", Unit: "ratio", Better: "lower"},
	{Name: "view.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "view.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "view.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "view.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "view.rows_mean", Unit: "rows", Better: "lower"},
	{Name: "view.materialize_s", Unit: "s", Better: "lower"},
	{Name: "parser.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "parser.facts_p50_us", Unit: "us", Better: "lower"},
	{Name: "parser.program_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.vet_ms", Unit: "ms", Better: "lower"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.misses", Unit: "count", Better: "lower"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower"},
	{Name: "qcache.entries_end", Unit: "count", Better: "higher"},
	{Name: "qcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "magic.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "magic.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "magic.exec_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "magic.derived_per_exec", Unit: "count", Better: "lower"},
	{Name: "magic.rewritten_rules", Unit: "count", Better: "lower"},
	{Name: "eval.solve_p50_us", Unit: "us", Better: "lower"},
	{Name: "eval.anc_s", Unit: "s", Better: "lower"},
	{Name: "eval.young_s", Unit: "s", Better: "lower"},
	{Name: "eval.excl_s", Unit: "s", Better: "lower"},
	{Name: "eval.supplies_s", Unit: "s", Better: "lower"},
	{Name: "eval.partcost_s", Unit: "s", Better: "lower"},
	{Name: "eval.join_s", Unit: "s", Better: "lower"},
	{Name: "eval.derived", Unit: "count", Better: "lower"},
	{Name: "eval.firings", Unit: "count", Better: "lower"},
	{Name: "eval.iterations", Unit: "count", Better: "lower"},
	{Name: "eval.index_hits", Unit: "count", Better: "higher"},
	{Name: "eval.full_scans", Unit: "count", Better: "lower"},
	{Name: "eval.plans_reordered", Unit: "count", Better: "higher"},
	{Name: "eval.firings_per_derived", Unit: "ratio", Better: "lower"},
	{Name: "eval.scan_frac", Unit: "ratio", Better: "lower"},
	{Name: "incr.apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "incr.apply_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "incr.deleted_overestimate", Unit: "count", Better: "lower"},
	{Name: "incr.rederived", Unit: "count", Better: "lower"},
	{Name: "incr.regrouped_classes", Unit: "count", Better: "lower"},
	{Name: "incr.rederive_ratio", Unit: "ratio", Better: "lower"},
	{Name: "incr.over_recompute", Unit: "ratio", Better: "lower"},
	{Name: "store.bulk_load_s", Unit: "s", Better: "lower"},
	{Name: "store.facts_loaded", Unit: "count", Better: "higher"},
	{Name: "store.bytes_per_fact", Unit: "bytes", Better: "lower"},
	{Name: "store.first_read_s", Unit: "s", Better: "lower"},
	{Name: "store.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "store.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "store.scan_us", Unit: "us", Better: "lower"},
	{Name: "term.set_build_us", Unit: "us", Better: "lower"},
	{Name: "term.fact_hash_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "rt.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.goroutines_end", Unit: "count", Better: "lower"},
}...)

// metricDefs indexes every metric by name.
var metricDefs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEndDefs {
		m[d.Name] = d
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d
	}
	return m
}()

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// manifestJSON renders BENCHMARK.json.  A metricDef's bound is left out of
// the JSON when zero, which is exactly the per-layer metrics.
func manifestJSON() []byte {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
