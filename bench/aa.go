package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// runAA measures the benchmark's own noise: two sets of n untraced runs
// of every workload by the same binary, interleaved (A1 B1 A2 B2 ...) so
// slow drift of the machine lands on both sets alike, run i of either set
// with seed cfg.seed+i.  For every workload and metric it prints both
// medians, both spreads (IQR ÷ median, quartiles as Python's
// statistics.quantiles gives them), the gap between the medians in the
// metric's worse direction, and a verdict: PASS when both spreads and the
// gap are within the bound.  setup_s is judged on the gap alone.  The
// demoted metrics are judged against the bound they were demoted for
// failing; their verdict is in brackets and does not count.
func runAA(ctx context.Context, cfg config, n int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	code := 0
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloadNames() {
				c := cfg
				c.workload, c.seed, c.trace = w, cfg.seed+int64(i), false
				r, err := runOne(ctx, c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
					return 1
				}
				if !r.Correct {
					report(os.Stdout, c, r)
					code = 1
				}
				for name, m := range r.Metrics {
					k := key{w, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s done\n", i+1, n, 'A'+set, w)
			}
		}
	}
	fmt.Printf("A/A: two interleaved sets of %d runs, %.0fs each, seeds %d..%d\n\n", n, cfg.seconds, cfg.seed, cfg.seed+int64(n)-1)
	fmt.Println("| workload | metric | unit | median A | spread A | median B | spread B | gap | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloadNames() {
		for _, d := range append(append([]metricDef{}, endToEndDefs...), demotedDefs...) {
			a, b := sets[0][key{w, d.Name}], sets[1][key{w, d.Name}]
			if len(a) == 0 || len(b) == 0 {
				continue // a demoted metric this workload does not have
			}
			gating := d.Bound > 0
			if !gating {
				d.Bound = demotedBound
			}
			ma, mb := median(a), median(b)
			sa, sb := iqrFrac(a), iqrFrac(b)
			gap := (mb - ma) / ma // how much worse B is than A
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			if math.Abs(gap) > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "FAIL"
			}
			if !gating {
				verdict = "(" + verdict + ")"
			} else if verdict == "FAIL" {
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.3f | %.4g | %.3f | %+.3f | %.2f | %s |\n",
				w, d.Name, d.Unit, ma, sa, mb, sb, gap, d.Bound, verdict)
		}
	}
	return code
}
