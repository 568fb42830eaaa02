package load

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldl1"
	"ldl1/client"
	"ldl1/internal/server"
)

const testRules = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(n0, n1). parent(n1, n2). parent(n2, n3). parent(n3, n4).
`

const testScript = `
\set src random(0, 3)
query*8:   ancestor(n$src, W)
assert*1:  parent(n$src, leaf$src).
retract*1: parent(n$src, leaf$src).
`

func testWorkload(t *testing.T, src string) *Workload {
	t.Helper()
	w, err := Parse("test.ldlw", src)
	if err != nil {
		t.Fatal(err)
	}
	w.Program = testRules
	return w
}

// countTarget records ops without doing work, optionally sleeping to
// simulate a slow service and failing every failEvery-th operation.
type countTarget struct {
	n         atomic.Int64
	delay     time.Duration
	failEvery int64
}

func (t *countTarget) Do(ctx context.Context, op Op) error {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	if n := t.n.Add(1); t.failEvery > 0 && n%t.failEvery == 0 {
		return fmt.Errorf("op %d refused: %s", n, op.Text)
	}
	return nil
}

func TestRunClosedLoop(t *testing.T) {
	w := testWorkload(t, testScript)
	tgt := &countTarget{}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: tgt, Clients: 2, Duration: 100 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Clients != 2 || res.TargetRPS != 0 {
		t.Errorf("result header = %q/%d/%g, want closed/2/0", res.Mode, res.Clients, res.TargetRPS)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("Ops = %d, Errors = %d; want many/0", res.Ops, res.Errors)
	}
	if res.Ops != tgt.n.Load() {
		t.Errorf("Ops = %d but target saw %d", res.Ops, tgt.n.Load())
	}
	if res.Hist.Count() != res.Ops {
		t.Errorf("histogram holds %d samples for %d ops", res.Hist.Count(), res.Ops)
	}
	if res.AchievedRPS <= 0 {
		t.Errorf("AchievedRPS = %g, want > 0", res.AchievedRPS)
	}
	if p50 := res.Hist.Percentile(50); p50 <= 0 {
		t.Errorf("p50 = %d, want > 0", p50)
	}
}

// Open loop at a rate the target sustains: achieved throughput tracks the
// target rate, not the maximum the target could do.
func TestRunOpenLoopPacing(t *testing.T) {
	w := testWorkload(t, testScript)
	tgt := &countTarget{}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: tgt, Clients: 4, Duration: 500 * time.Millisecond, Rate: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.TargetRPS != 200 {
		t.Errorf("mode/target = %q/%g, want open/200", res.Mode, res.TargetRPS)
	}
	// ~100 intended arrivals in 500ms; allow wide scheduling slack but
	// catch closed-loop-style free running (which would do tens of
	// thousands).
	if res.Ops < 50 || res.Ops > 150 {
		t.Errorf("Ops = %d, want ≈100 intended arrivals", res.Ops)
	}
}

// Coordinated-omission correction: a target needing 2ms per op under a
// 2 kHz open-loop schedule falls ever further behind, so corrected
// latencies must grow far beyond the 2ms service time.
func TestRunOpenLoopCoordinatedOmission(t *testing.T) {
	w := testWorkload(t, testScript)
	tgt := &countTarget{delay: 2 * time.Millisecond}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: tgt, Clients: 1, Duration: 300 * time.Millisecond, Rate: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	// Service time alone would cap samples at ~2-3ms.  With the schedule
	// 4x oversubscribed, the backlog grows ~1.5ms per op, so the last
	// completed operations carry well over 100ms of corrected queueing
	// delay; the max must reflect that.
	if max := res.Hist.Max(); max < 20*time.Millisecond.Nanoseconds() {
		t.Errorf("corrected max latency = %v, want >= 20ms of backlog", time.Duration(max))
	}
	// A linear backlog ramp puts p99 at ~2x p50; assert a safe margin of
	// that shape rather than the exact ratio.
	if p99, p50 := res.Hist.Percentile(99), res.Hist.Percentile(50); p99 < p50*3/2 {
		t.Errorf("p99 = %v not well above p50 = %v under a saturating schedule", time.Duration(p99), time.Duration(p50))
	}
}

func TestRunConfigValidation(t *testing.T) {
	w := testWorkload(t, testScript)
	if _, err := Run(context.Background(), Config{Workload: w, Duration: time.Second}); err == nil {
		t.Error("Run without Target succeeded")
	}
	if _, err := Run(context.Background(), Config{Workload: w, Target: &countTarget{}}); err == nil {
		t.Error("Run without Duration succeeded")
	}
}

func TestRunCancel(t *testing.T) {
	w := testWorkload(t, testScript)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{Workload: w, Target: &countTarget{}, Clients: 2, Duration: 10 * time.Second, Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the run promptly")
	}
	if res == nil || res.Ops == 0 {
		t.Fatal("cancelled run returned no partial result")
	}
}

// The in-process view target: the full mixed stream against a real
// materialized view, every operation kind succeeding.
func TestViewTargetMixed(t *testing.T) {
	w := testWorkload(t, testScript)
	eng, err := ldl1.New(w.Program)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: NewViewTarget(mv, ldl1.ReadOpts{}), Clients: 4, Duration: 150 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operations failed against the view", res.Errors)
	}
	if res.Hist.Percentile(50) <= 0 || res.Hist.Percentile(99) <= 0 {
		t.Error("percentiles not populated")
	}
}

// The server-backed target: the same stream through a spawned ldl1d's HTTP
// stack and the Go client.
func TestClientTargetMixed(t *testing.T) {
	w := testWorkload(t, testScript)
	srv := server.New(server.Config{AllowAdmin: true})
	if err := srv.Load(w.DB, w.Program); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		Workload: w,
		Target:   NewClientTarget(client.New(ts.URL, ts.Client()), w.DB),
		Clients:  4, Duration: 150 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operations failed against the server", res.Errors)
	}
}

// A target failing every third operation: the failures are counted, record
// no latency, and the run keeps the first one's cause — in both loop modes.
func TestRunKeepsFirstOperationError(t *testing.T) {
	w := testWorkload(t, testScript)
	for _, rate := range []float64{0, 400} {
		tgt := &countTarget{failEvery: 3}
		res, err := Run(context.Background(), Config{
			Workload: w, Target: tgt, Clients: 2, Duration: 100 * time.Millisecond, Rate: rate, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := tgt.n.Load()
		if res.Errors != seen/3 || res.Ops != seen-seen/3 {
			t.Errorf("rate %g: Ops = %d, Errors = %d of %d operations; want every third failed", rate, res.Ops, res.Errors, seen)
		}
		if res.Hist.Count() != res.Ops {
			t.Errorf("rate %g: histogram holds %d samples for %d successful ops", rate, res.Hist.Count(), res.Ops)
		}
		if res.FirstErr == nil || !strings.Contains(res.FirstErr.Error(), "refused") {
			t.Errorf("rate %g: FirstErr = %v, want the target's error", rate, res.FirstErr)
		}
	}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: &countTarget{}, Duration: 20 * time.Millisecond, Seed: 1,
	})
	if err != nil || res.Errors != 0 || res.FirstErr != nil {
		t.Errorf("clean run: err = %v, Errors = %d, FirstErr = %v", err, res.Errors, res.FirstErr)
	}
}

// An operation failure (bad query against the target) is counted, not
// fatal, and records no latency sample.
func TestRunCountsOperationErrors(t *testing.T) {
	w := testWorkload(t, `query: ancestor(n0, W`) // unbalanced paren: every op fails to parse
	eng, err := ldl1.New(w.Program)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := eng.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Workload: w, Target: NewViewTarget(mv, ldl1.ReadOpts{}), Clients: 1, Duration: 50 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("expected operation errors")
	}
	if res.Ops != 0 || res.Hist.Count() != 0 {
		t.Errorf("failed ops recorded samples: Ops = %d, hist = %d", res.Ops, res.Hist.Count())
	}
}
