package incr

import (
	"os"
	"testing"

	"ldl1/internal/eval"
)

// The maintenance tests run with frontiers checking that no sink (the
// overestimate, the rederivation, the insertion pass, the seeds) accepts a
// fact twice in one round: delta relations are built without deduplication.
func TestMain(m *testing.M) {
	eval.DebugFrontier = true
	os.Exit(m.Run())
}
