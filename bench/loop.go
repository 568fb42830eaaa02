package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is the system under test as one client sees it.
type target interface {
	// do performs one op and returns the number of answer rows (0 for
	// writes).  req identifies the op in the trace.
	do(ctx context.Context, req int64, o op) (rows int, err error)
}

// sample is one completed op.
type sample struct {
	endNS int64 // completion time since the loop started
	latNS int64 // call-to-return latency
	write bool
}

// issuedOp is an op of a traced phase with the request id it ran under, so
// a replay can re-issue it at a lower layer under the same id.
type issuedOp struct {
	req int64
	op  op
}

// loopResult is what a load phase observed.
type loopResult struct {
	samples   [][]sample // per client, in completion order
	issued    []issuedOp // traced phases only: every op that succeeded, in request order
	attempted int
	failed    int      // transport error, non-2xx, count != len(rows), or oracle mismatch
	errs      []string // the first few failures, for the report
	cpuMS     float64  // process user+sys CPU over the measured window
	allocKB   float64  // heap allocated over the measured window

	mu sync.Mutex // guards failed, errs and issued while the clients run
}

func (r *loopResult) fail(msg string) {
	r.mu.Lock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
	r.mu.Unlock()
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reqCounter hands out request ids, unique across the phases of a run.
var reqCounter atomic.Int64

// runClosed drives a closed loop: one goroutine per stream, each issuing
// its next op when the previous one returns, for warm+measure.  check, if
// not nil, is the per-op oracle.  CPU is sampled over the measured window
// only.  A cancelled ctx ends the loop early.
func runClosed(ctx context.Context, tg target, streams []*stream, check func(o op, rows int) error,
	tr *tracer, warm, measure time.Duration) *loopResult {
	res := &loopResult{samples: make([][]sample, len(streams))}
	var stop atomic.Bool
	var attempted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c, st := range streams {
		wg.Add(1)
		go func(c int, st *stream) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<16)
			var issued []issuedOp
			for !stop.Load() && ctx.Err() == nil {
				o := st.nextOp()
				req := reqCounter.Add(1)
				attempted.Add(1)
				t0 := time.Now()
				rows, err := tg.do(ctx, req, o)
				t1 := time.Now()
				if err == nil && check != nil && !o.kind.write() {
					err = check(o, rows)
				}
				tr.add(req, layerDriver, t0, t1, err == nil)
				if err != nil {
					if ctx.Err() != nil {
						attempted.Add(-1) // cut short by cancellation, not a failure
						break
					}
					res.fail(fmt.Sprintf("%s: %v", o.text, err))
					continue
				}
				buf = append(buf, sample{endNS: t1.Sub(start).Nanoseconds(), latNS: t1.Sub(t0).Nanoseconds(), write: o.kind.write()})
				if tr != nil {
					issued = append(issued, issuedOp{req, o})
				}
			}
			res.samples[c] = buf
			res.mu.Lock()
			res.issued = append(res.issued, issued...)
			res.mu.Unlock()
		}(c, st)
	}
	sleepCtx(ctx, warm)
	cpu0, mem0 := cpuNow(), memNow()
	sleepCtx(ctx, measure)
	cpu1, mem1 := cpuNow(), memNow()
	stop.Store(true)
	wg.Wait()
	sort.Slice(res.issued, func(i, j int) bool { return res.issued[i].req < res.issued[j].req })
	res.attempted = int(attempted.Load())
	res.cpuMS = float64(cpu1-cpu0) / float64(time.Millisecond)
	res.allocKB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024
	return res
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// segStats are the per-segment numbers; the reported value of each is the
// median over the segments of a run.  Latencies are in ms; a class with no
// sample in the segment reads NaN.
type segStats struct {
	ops, reads, writes int
	opsS               float64
	readP50, readP99   float64
	writeP50, writeP95 float64
}

// segments cuts the measured window [warm, warm+measure) into n equal
// back-to-back segments by completion time and summarises each.
func segments(res *loopResult, warm, measure time.Duration, n int) []segStats {
	segLen := measure.Nanoseconds() / int64(n)
	type bucket struct{ reads, writes []int64 }
	bs := make([]bucket, n)
	for _, cs := range res.samples {
		for _, s := range cs {
			i := (s.endNS - warm.Nanoseconds()) / segLen
			if s.endNS < warm.Nanoseconds() || i >= int64(n) {
				continue
			}
			if s.write {
				bs[i].writes = append(bs[i].writes, s.latNS)
			} else {
				bs[i].reads = append(bs[i].reads, s.latNS)
			}
		}
	}
	out := make([]segStats, n)
	for i, b := range bs {
		reads, writes := sortedIn(b.reads, perMS), sortedIn(b.writes, perMS)
		out[i] = segStats{
			ops: len(reads) + len(writes), reads: len(reads), writes: len(writes),
			opsS:    float64(len(reads)+len(writes)) / (float64(segLen) / perS),
			readP50: percentile(reads, 0.50), readP99: percentile(reads, 0.99),
			writeP50: percentile(writes, 0.50), writeP95: percentile(writes, 0.95),
		}
	}
	return out
}

// over collects one field of every segment.
func over(segs []segStats, f func(segStats) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

// openResult is what the open-loop phase observed.
type openResult struct {
	latMS, lateMS []float64 // sorted; latency from the due time, and how late the op started
	achieved      float64   // completed on schedule's clock ÷ scheduled
	failed        int
}

// runOpen issues ops on a fixed schedule — op i is due at i/rate — from
// `workers` goroutines, and times each op from when it was DUE, so the
// wait a stall imposes on later ops is counted.  It returns the ops it
// scheduled, so the caller can undo their writes.
func runOpen(ctx context.Context, tg target, st *stream, rate float64, dur time.Duration, workers int) (openResult, []op) {
	total := int(rate * dur.Seconds())
	ops := make([]op, total)
	for i := range ops {
		ops[i] = st.nextOp()
	}
	var next atomic.Int64
	var mu sync.Mutex
	var res openResult
	var lat, late []int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepCtx(ctx, time.Until(due))
				t0 := time.Now()
				_, err := tg.do(ctx, reqCounter.Add(1), ops[i])
				t1 := time.Now()
				mu.Lock()
				if err != nil {
					res.failed++
				} else {
					lat = append(lat, t1.Sub(due).Nanoseconds())
					late = append(late, t0.Sub(due).Nanoseconds())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res.latMS, res.lateMS = sortedIn(lat, perMS), sortedIn(late, perMS)
	res.achieved = float64(len(lat)) / (rate * elapsed.Seconds())
	if res.achieved > 1 {
		res.achieved = 1
	}
	return res, ops
}
