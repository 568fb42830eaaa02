package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ldl1"
	"ldl1/internal/store"
)

// pairSrc maintains the invariant the stress test leans on: the writer
// only ever asserts/retracts left(k) and right(k) TOGETHER in one
// transaction, so in every published model the two relations have equal
// extents — lonely(X) is empty and both(X) mirrors left(X).  A reader
// that ever sees a nonempty lonely, or a both row without its left row,
// has observed a half-applied transaction.
const pairSrc = `
	both(X) <- left(X), right(X).
	lonely(X) <- left(X), not right(X).
	left(seed). right(seed).
`

// TestConcurrentReadersOneWriter is the -race stress test: N goroutine
// readers issue queries while a writer streams assert/retract
// transactions against the same materialized program.  Every observed
// model must be a consistent published snapshot — never a half-applied
// transaction — and the run must be data-race-free under -race.
func TestConcurrentReadersOneWriter(t *testing.T) {
	s := New(Config{})
	if err := s.Load("pairs", pairSrc); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	const (
		readers = 8
		txs     = 60
	)
	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		anomalies atomic.Int64
		reads     atomic.Int64
	)
	fail := func(format string, args ...any) {
		anomalies.Add(1)
		t.Errorf(format, args...)
	}

	query := func(q string) (*queryResponse, error) {
		body, _ := json.Marshal(queryRequest{Query: q})
		resp, err := http.Post(ts.URL+"/db/pairs/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var out queryResponse
		return &out, json.NewDecoder(resp.Body).Decode(&out)
	}

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !done.Load() {
				switch id % 2 {
				case 0:
					// Atomicity invariant: no snapshot ever has a left
					// without its right.
					q, err := query("lonely(W)")
					if err != nil {
						fail("reader %d: %v", id, err)
						return
					}
					if q.Count != 0 {
						fail("reader %d observed half-applied tx: lonely = %v", id, q.Rows)
						return
					}
				case 1:
					// Single-snapshot consistency: one query joining the
					// maintained view with its base never misses — every
					// both(X) row has its left(X) row in the same snapshot.
					q, err := query("both(W), not lonely(W), left(W)")
					if err != nil {
						fail("reader %d: %v", id, err)
						return
					}
					if q.Count == 0 {
						fail("reader %d: both/left join came back empty (seed row must always match)", id)
						return
					}
				}
				reads.Add(1)
			}
		}(i)
	}

	// The writer streams paired transactions: insert left(k)+right(k)
	// together, then remove them together, interleaving adds and removes
	// across a sliding window of keys.
	for k := 0; k < txs; k++ {
		body, _ := json.Marshal(updateRequest{
			Assert: fmt.Sprintf("left(k%d). right(k%d).", k, k),
		})
		resp, err := http.Post(ts.URL+"/db/pairs/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("writer tx %d: status %d", k, resp.StatusCode)
		}
		if k >= 5 {
			body, _ = json.Marshal(updateRequest{
				Retract: fmt.Sprintf("left(k%d). right(k%d).", k-5, k-5),
			})
			resp, err = http.Post(ts.URL+"/db/pairs/tx", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("writer retract %d: status %d", k-5, resp.StatusCode)
			}
		}
	}
	done.Store(true)
	wg.Wait()

	if anomalies.Load() > 0 {
		t.Fatalf("%d consistency anomalies across %d reads", anomalies.Load(), reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
}

// TestKilledWriteLeavesSnapshotIntact cancels an in-flight write (via an
// expired request deadline) and asserts the published model is
// bit-identical to the last published snapshot: the view's store pointer
// is unchanged and subsequent reads see exactly the pre-write answers.
func TestKilledWriteLeavesSnapshotIntact(t *testing.T) {
	s := New(Config{})
	// Two disjoint chains; the doomed write links them, deriving tens of
	// thousands of ancestor pairs — far more than fits in 1ms.
	var b strings.Builder
	b.WriteString("ancestor(X, Y) <- parent(X, Y).\nancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "parent(a%d, a%d).\n", i, i+1)
		fmt.Fprintf(&b, "parent(b%d, b%d).\n", i, i+1)
	}
	if err := s.Load("chains", b.String()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	db := s.lookup("chains")
	before := mustModel(t, db.eng)
	beforeLen := before.Len()

	body, _ := json.Marshal(updateRequest{
		Assert:     "parent(a150, b0).",
		DeadlineMS: 1,
	})
	resp, err := http.Post(ts.URL+"/db/chains/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != 504 && resp.StatusCode != StatusClientClosedRequest {
		t.Fatalf("doomed write: status %d code %q, want 504 or 499", resp.StatusCode, eb.Error.Code)
	}

	after := mustModel(t, db.eng)
	if after != before {
		t.Fatalf("killed write published a new snapshot: %p -> %p (len %d -> %d)",
			before, after, beforeLen, after.Len())
	}
	// And the HTTP read path agrees: the link fact is absent, the derived
	// cross-chain ancestor never materialized.
	var q queryResponse
	if st := post(t, ts.URL+"/db/chains/query", queryRequest{Query: "parent(a150, W)"}, &q); st != 200 || q.Count != 0 {
		t.Fatalf("rolled-back base fact visible: status %d rows %v", st, q.Rows)
	}
	if st := post(t, ts.URL+"/db/chains/query", queryRequest{Query: "ancestor(a0, b150)"}, &q); st != 200 || q.Count != 0 {
		t.Fatalf("rolled-back derived fact visible: status %d rows %v", st, q.Rows)
	}

	// The write still works once allowed to finish, proving the rollback
	// left the view fully functional.
	var u updateResponse
	if st := post(t, ts.URL+"/db/chains/tx", updateRequest{Assert: "parent(a150, b0)."}, &u); st != 200 || u.Inserted == 0 {
		t.Fatalf("follow-up write: status %d result %+v", st, u)
	}
	if st := post(t, ts.URL+"/db/chains/query", queryRequest{Query: "ancestor(a0, b150)"}, &q); st != 200 || q.Count != 1 {
		t.Fatalf("follow-up derived fact missing: status %d rows %v", st, q.Rows)
	}
}

// mustModel returns the whole model of e, which Run reads.
func mustModel(t *testing.T, e *ldl1.Engine) *store.DB {
	t.Helper()
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m.DB()
}
