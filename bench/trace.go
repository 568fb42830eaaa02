package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layers a span can belong to, outermost first.  A span's id is derived
// from its request id and its layer, and its parent is the span of the
// same request in the parent layer, so the benchmark's HTTP middleware —
// which sees only the X-Bench-Req header — can link its span to the
// client-side ones without another header.
const (
	layerDriver  = iota // driver.op: the client call, as the workload's user sees it
	layerWire           // wire: the HTTP round trip inside the client
	layerHandler        // server.handler: ServeHTTP, timed by the middleware
	layerView           // replays, keyed by the same req: Materialized.QueryOpts / ExecOpts / AssertCtx
	layerParser
	layerSolve
	layerIncr
	layerMagic
	layerClone
	numLayers
)

var layerName = [numLayers]string{"driver.op", "wire", "server.handler", "view", "parser",
	"eval.solve", "incr.apply", "magic.exec", "store.clone"}

// layerParent is the layer whose span of the same request encloses this
// one; replay spans hang off the driver op they re-issue.
var layerParent = [numLayers]int{-1, layerDriver, layerWire, layerDriver, layerDriver,
	layerDriver, layerDriver, layerDriver, layerDriver}

type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0: none
	Req     int64  `json:"req"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	OK      bool   `json:"ok"`
}

func spanID(req int64, layer int) int64 { return req*numLayers + int64(layer) + 1 }

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(req int64, layer int, start, end time.Time, ok bool) {
	if t == nil {
		return
	}
	s := span{ID: spanID(req, layer), Req: req, Layer: layerName[layer],
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), OK: ok}
	if p := layerParent[layer]; p >= 0 {
		s.Parent = spanID(req, p)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the span durations of one layer in nanoseconds, keyed
// by request id.
func (t *tracer) durations(layer int) map[int64]int64 {
	out := map[int64]int64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Layer == layerName[layer] {
			out[s.Req] = s.EndNS - s.StartNS
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
