package parser

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// parseAllocCeiling bounds the bytes parsing 20 000 facts q(i). allocates:
// 4 962 680 measured, plus a quarter.  Lexing the whole source into a token
// slice and growing the rule slice by append allocated 35.0 MB; the
// objects, about four per fact, are the same either way.
const parseAllocCeiling = 6_203_000

// TestParseProgramAllocs: the parser pulls its tokens from the lexer one at
// a time and sizes the program's rule slice once, so what parsing allocates
// is in proportion to its source.
func TestParseProgramAllocs(t *testing.T) {
	var b strings.Builder
	for i := range 20000 {
		b.WriteString("q(" + strconv.Itoa(i) + ").\n")
	}
	src := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := ParseProgram(src)
	runtime.ReadMemStats(&after)
	if err != nil || len(p.Rules) != 20000 {
		t.Fatalf("%v, %d rules", err, len(p.Rules))
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("parsing %d bytes of 20 000 facts allocates %d bytes in %d objects (ceiling %d bytes)", len(src), bytes, objects, parseAllocCeiling)
	if bytes > parseAllocCeiling {
		t.Errorf("parsing 20 000 facts allocates %d bytes, ceiling %d", bytes, parseAllocCeiling)
	}
}
