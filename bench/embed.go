package main

import (
	"context"
	"fmt"
	"time"

	"ldl1"
	"ldl1/internal/store"
)

// embedded is the in-process route: one shared engine with magic sets on,
// and one prepared handle per query shape.
type embedded struct {
	eng *ldl1.Engine
	pq  [numShapes]*ldl1.PreparedQuery
}

// startEmbedded builds the engine from the rules and a prebuilt EDB; the
// returned duration is New + AddDB + Prepare.
func startEmbedded(edb *store.DB) (*embedded, time.Duration, error) {
	t0 := time.Now()
	eng, err := ldl1.New(treeRules, ldl1.WithMagic(true))
	if err != nil {
		return nil, 0, fmt.Errorf("engine: %w", err)
	}
	eng.AddDB(edb)
	em := &embedded{eng: eng}
	for s := shape(0); s < numShapes; s++ {
		if em.pq[s], err = eng.Prepare(s.text("n1")); err != nil {
			return nil, 0, fmt.Errorf("prepare %s: %w", shapeHandle[s], err)
		}
	}
	return em, time.Since(t0), nil
}

func (em *embedded) do(ctx context.Context, _ int64, o op) (int, error) {
	ans, err := em.pq[o.shape].ExecCtx(ctx, ldl1.Sym(o.arg))
	if err != nil {
		return 0, err
	}
	return ans.Len(), nil
}
