package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ldl1"
)

// evalRun is one program's part of a pass.
type evalRun struct {
	loadNS, runNS int64
	stats         ldl1.Stats
	model         *ldl1.Model
	err           error // evaluation failure or model mismatch
}

// runPass evaluates every batch program once, from nothing: fresh engine,
// bulk load of the prebuilt EDB, whole-model Run.  Verification against
// the frozen counts happens outside the timed regions.
func runPass(ctx context.Context, progs []batchProgram, tr *tracer) []evalRun {
	out := make([]evalRun, len(progs))
	for i, bp := range progs {
		r := &out[i]
		req := reqCounter.Add(1)
		t0 := time.Now()
		eng, err := ldl1.New(bp.rules, ldl1.WithStats(&r.stats))
		if err != nil {
			r.err = fmt.Errorf("%s: %w", bp.name, err)
			continue
		}
		eng.AddDB(bp.edb)
		t1 := time.Now()
		r.model, err = eng.RunCtx(ctx)
		t2 := time.Now()
		tr.add(req, layerDriver, t0, t2, err == nil)
		r.loadNS, r.runNS = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
		if err != nil {
			r.err = fmt.Errorf("%s: %w", bp.name, err)
			continue
		}
		r.err = checkModel(bp, r.model)
	}
	return out
}

// checkModel compares the per-predicate sizes of a computed model with the
// frozen table.
func checkModel(bp batchProgram, m *ldl1.Model) error {
	if bp.want == nil {
		return nil
	}
	db := m.DB()
	preds := db.Preds()
	sort.Strings(preds)
	for _, p := range preds {
		if got, want := db.Card(p), bp.want[p]; got != want {
			return fmt.Errorf("%s: model has %d %s facts, want %d", bp.name, got, p, want)
		}
	}
	if len(preds) != len(bp.want) {
		return fmt.Errorf("%s: model has predicates %v, want %d of them", bp.name, preds, len(bp.want))
	}
	return nil
}
