package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ldl1"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {0.11, 2}, {0, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99: one sample beyond it", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25 as Python gives", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := iqrFrac([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("iqrFrac = %v, want %v", got, 10.5/4)
	}
}

// TestSegmentsAreMediansOfTheirOwnSamples builds a loop result by hand:
// three one-second segments after a one-second warm-up, with known
// latencies, and checks each segment's numbers and the median over them.
func TestSegments(t *testing.T) {
	ms := int64(time.Millisecond)
	at := func(sec float64) int64 { return int64(sec * float64(time.Second)) }
	res := &loopResult{samples: [][]sample{
		{{endNS: at(0.5), latNS: 900 * ms}, // warm-up: dropped
			{endNS: at(1.1), latNS: 1 * ms}, {endNS: at(1.5), latNS: 3 * ms}, {endNS: at(1.9), latNS: 2 * ms, write: true},
			{endNS: at(2.5), latNS: 10 * ms}},
		{{endNS: at(2.6), latNS: 20 * ms},
			{endNS: at(3.2), latNS: 5 * ms}, {endNS: at(3.3), latNS: 7 * ms}, {endNS: at(3.4), latNS: 6 * ms}, {endNS: at(3.5), latNS: 8 * ms},
			{endNS: at(4.5), latNS: 900 * ms}}, // past the window: dropped
	}}
	segs := segments(res, time.Second, 3*time.Second, 3)
	if segs[0].ops != 3 || segs[1].ops != 2 || segs[2].ops != 4 {
		t.Fatalf("ops per segment = %d %d %d, want 3 2 4", segs[0].ops, segs[1].ops, segs[2].ops)
	}
	if segs[0].reads != 2 || segs[0].writes != 1 {
		t.Errorf("segment 0 split reads/writes wrongly: %+v", segs[0])
	}
	if segs[0].readP50 != 1 || segs[0].readP99 != 3 || segs[1].readP50 != 10 || segs[2].readP50 != 6 || segs[2].readP99 != 8 {
		t.Errorf("segment read percentiles wrong: %+v", segs)
	}
	if segs[0].writeP50 != 2 || segs[0].writeP95 != 2 || !math.IsNaN(segs[1].writeP50) {
		t.Errorf("segment write percentiles wrong: %+v", segs)
	}
	if got := median(over(segs, func(s segStats) float64 { return s.readP50 })); got != 6 {
		t.Errorf("median of segment read p50s = %v, want 6", got)
	}
	if got := median(over(segs, func(s segStats) float64 { return s.opsS })); got != 3 {
		t.Errorf("median of segment ops/s = %v, want 3", got)
	}
}

func streamPrefix(w string, seed int64, client, n int) string {
	st := newStream(w, seed, client)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(st.nextOp().String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range []string{"serve-hot", "serve-mixed", "embed-magic"} {
		a, b := streamPrefix(w, 7, 1, 5000), streamPrefix(w, 7, 1, 5000)
		if a != b {
			t.Errorf("%s: same (seed, client) gave different streams", w)
		}
		if a == streamPrefix(w, 8, 1, 5000) {
			t.Errorf("%s: a different seed gave the same stream", w)
		}
		if a == streamPrefix(w, 7, 0, 5000) {
			t.Errorf("%s: a different client gave the same stream", w)
		}
	}
	// The seed moves which keys are hot, never how much work they are.
	for seed := int64(1); seed < 20; seed++ {
		perLevel := map[int]int{}
		for _, k := range hotKeys(seed) {
			perLevel[level(k)]++
		}
		for l := 2; l <= treeDepth; l++ {
			if perLevel[l] != 4 {
				t.Fatalf("seed %d: %d hot keys on level %d, want 4", seed, perLevel[l], l)
			}
		}
	}
	if a, b := treeSource(3, 1), treeSource(3, 2); a == b || len(a) != len(b) {
		t.Error("the seed should reorder the tree's facts and nothing else")
	}
}

func TestWritesComeInPairs(t *testing.T) {
	st := newStream("serve-mixed", 3, 0)
	open := map[string]bool{}
	writes := 0
	for i := 0; i < 20000; i++ {
		switch o := st.nextOp(); o.kind {
		case opAssert:
			if len(open) != 0 {
				t.Fatalf("op %d attaches %s while %v is still attached", i, o.text, open)
			}
			open[o.text] = true
			writes++
		case opRetract:
			if !open[o.text] {
				t.Fatalf("op %d detaches %s, which is not attached", i, o.text)
			}
			delete(open, o.text)
			writes++
		}
	}
	if writes != 2000 {
		t.Errorf("%d writes in 20000 ops, want one in ten", writes)
	}
}

// bruteModel computes the tree program's minimal model by naive iteration
// over node pairs: no evaluator, no tree arithmetic.
type bruteModel struct {
	n                    int
	a, sg                map[[2]int]bool
	hasdesc, young, kids map[int]bool
}

func brute(depth int) *bruteModel {
	n := treeNodes(depth)
	parents, siblings := treeEdges(depth)
	m := &bruteModel{n: n, a: map[[2]int]bool{}, sg: map[[2]int]bool{}, hasdesc: map[int]bool{}, young: map[int]bool{}, kids: map[int]bool{}}
	for _, e := range parents {
		m.a[e] = true
		m.kids[e[0]] = true
	}
	for _, e := range siblings {
		m.sg[e] = true
	}
	for changed := true; changed; {
		changed = false
		for x := 1; x <= n; x++ {
			for z := 1; z <= n; z++ {
				if !m.a[[2]int{x, z}] {
					continue
				}
				for y := 1; y <= n; y++ {
					if m.a[[2]int{z, y}] && !m.a[[2]int{x, y}] {
						m.a[[2]int{x, y}] = true
						changed = true
					}
				}
			}
		}
		for _, e1 := range parents { // p(z1, x)
			for _, e2 := range parents { // p(z2, y)
				if m.sg[[2]int{e1[0], e2[0]}] && !m.sg[[2]int{e1[1], e2[1]}] {
					m.sg[[2]int{e1[1], e2[1]}] = true
					changed = true
				}
			}
		}
	}
	for e := range m.a {
		m.hasdesc[e[0]] = true
	}
	for e := range m.sg {
		if !m.hasdesc[e[0]] {
			m.young[e[0]] = true
		}
	}
	return m
}

func (m *bruteModel) rows(s shape, node int) int {
	count := func(rel map[[2]int]bool, col int) int {
		c := 0
		for e := range rel {
			if e[col] == node {
				c++
			}
		}
		return c
	}
	one := func(set map[int]bool) int {
		if set[node] {
			return 1
		}
		return 0
	}
	switch s {
	case shapeDesc:
		return count(m.a, 0)
	case shapeAnc:
		return count(m.a, 1)
	case shapeSG:
		return count(m.sg, 0)
	case shapeYoung:
		return one(m.young)
	default:
		return one(m.kids)
	}
}

func TestOracleAgainstBruteForce(t *testing.T) {
	const depth = 3
	m := brute(depth)
	for node := 1; node <= m.n; node++ {
		for s := shape(0); s < numShapes; s++ {
			if got, want := wantRows(s, node, depth), m.rows(s, node); got != want {
				t.Errorf("%s: oracle says %d rows, brute force %d", s.text(nodeName(node)), got, want)
			}
		}
	}
	total := 2*(m.n-1) + len(m.a) + len(m.sg) + len(m.hasdesc) + len(m.young) + len(m.kids)
	if got := treeModelFacts(depth); got != total {
		t.Errorf("treeModelFacts(%d) = %d, brute force %d", depth, got, total)
	}
	// And the evaluator agrees with both.
	eng, err := ldl1.New(treeSource(depth, 1))
	if err != nil {
		t.Fatal(err)
	}
	model, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if model.Len() != total {
		t.Errorf("the engine's model has %d facts, brute force %d", model.Len(), total)
	}
	if got := treeModelFacts(9); got != 360274 {
		t.Errorf("treeModelFacts(9) = %d, want 360274", got)
	}
}

func goroutines() int { return runtime.NumGoroutine() }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEndDefs {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for i, d := range perLayerDefs {
		check(d.Name)
		if demoted := i < len(demotedDefs); strings.Contains(d.Name, ".") == demoted {
			t.Errorf("per-layer metric %q: layer metrics are layer.metric, demoted ones keep their bare names", d.Name)
		}
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(endToEndDefs), len(perLayerDefs))
	}
	// 4 + 22 runs per workload, each with its set-up, within 3420 s.
	if runs := 4 + 22*len(workloadDefs); float64(runs)*(runSeconds*(1+warmFrac)+8) > 3420 {
		t.Errorf("%d runs of %ds do not fit in 3420 s", runs, runSeconds)
	}

	want := manifestJSON()
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes", len(want))
	}
	var parsed map[string]any
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v (regenerate with: sh bench/run.sh -manifest > BENCHMARK.json)", err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the benchmark's own tables; regenerate with: sh bench/run.sh -manifest > BENCHMARK.json")
	}
}

// shrink swaps the inputs for miniatures, so the smoke test exercises
// every phase of every workload in a couple of seconds.
func shrink(t *testing.T) {
	saved := []int{treeDepth, ancLayers, ancWidth, exclChains, exclLen, supSuppliers, supParts, pcFanout,
		joinNodes, joinWide, joinGroups, joinDimRows}
	treeDepth, ancLayers, ancWidth, exclChains, exclLen, supSuppliers, supParts, pcFanout = 4, 3, 12, 2, 5, 30, 4, 3
	joinNodes, joinWide, joinGroups, joinDimRows = 40, 400, 20, 10
	frozenSizes = false
	t.Cleanup(func() {
		treeDepth, ancLayers, ancWidth, exclChains, exclLen, supSuppliers, supParts, pcFanout =
			saved[0], saved[1], saved[2], saved[3], saved[4], saved[5], saved[6], saved[7]
		joinNodes, joinWide, joinGroups, joinDimRows = saved[8], saved[9], saved[10], saved[11]
		frozenSizes = true
	})
}

// TestSmoke runs every workload untraced and traced on miniature inputs
// for a tenth of a second each, and checks what the harness will check:
// every metric of the mode present and a number, nothing failed, the
// trace written, no child process, no goroutine left.
func TestSmoke(t *testing.T) {
	shrink(t)
	out := t.TempDir()
	before := goroutines()
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 5, seconds: 0.1, trace: trace, outDir: out}
			r, err := runOne(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w, trace, r.Correct, r.Failed, r.Attempted, r.errs)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			got := r.harness(trace).Metrics
			if len(got) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(got), len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, trace, d.Name, m, ok)
				}
			}
			if _, err := json.Marshal(r.harness(trace)); err != nil {
				t.Errorf("%s trace=%v: result does not marshal: %v", w, trace, err)
			}
			if trace {
				if st, err := os.Stat(filepath.Join(out, "trace-"+w+".jsonl")); err != nil || st.Size() == 0 {
					t.Errorf("%s: no trace written: %v", w, err)
				}
			}
		}
	}
	if err := assertClean(before); err != nil {
		t.Error(err)
	}
}

func TestCancelledRunReturnsPromptly(t *testing.T) {
	shrink(t)
	before := goroutines()
	for _, w := range workloadNames() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		t0 := time.Now()
		_, err := runOne(ctx, config{workload: w, seed: 1, seconds: 5, outDir: t.TempDir()})
		cancel()
		if err == nil {
			t.Errorf("%s: a run cut short must not report a result", w)
		}
		if d := time.Since(t0); d > 5*time.Second {
			t.Errorf("%s: took %v to notice the cancellation", w, d)
		}
	}
	if err := assertClean(before); err != nil {
		t.Error(err)
	}
}

// TestAASmoke runs the A/A mode end to end on miniature inputs: two sets
// of one run of every workload, and a table with a row per workload and
// end-to-end metric, and rows for the demoted metrics the workload has.
func TestAASmoke(t *testing.T) {
	shrink(t)
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runAA(context.Background(), config{seed: 1, seconds: 0.02}, 1)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			if !strings.Contains(string(out), "| "+w.Name+" | "+d.Name+" |") {
				t.Errorf("A/A table has no row for %s %s:\n%s", w.Name, d.Name, out)
			}
		}
	}
	if !strings.Contains(string(out), "| batch-model | eval_s |") || !strings.Contains(string(out), "| serve-hot | ops_s |") {
		t.Errorf("A/A table lacks the demoted metrics:\n%s", out)
	}
}
