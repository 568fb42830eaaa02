package ldl1

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ldl1/internal/parser"
)

// FuzzEngine takes program text through the engine's whole-program paths
// under WithLimit(5000) and a 200 ms deadline: New, Run, the Run of a
// WithMagic engine, Materialize and Vet.  None may panic or outlive its
// bounds, and an admitted program has one model (Theorem 1), so the two
// Runs and the clone Materialize returns agree whenever they finish.  The
// seeds are the rules and facts of programs/*.ldl.
func FuzzEngine(f *testing.F) {
	files, err := filepath.Glob("programs/*.ldl")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		unit, err := parser.Parse(string(src))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(unit.Program.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		opts := []Option{WithLimit(5000), WithDeadline(200 * time.Millisecond)}
		Vet(src)
		eng, err := New(src, opts...)
		if err != nil {
			return
		}
		eng.Vet()
		m, err := eng.Run()
		mag, merr := New(src, append(opts, WithMagic(true))...)
		if merr != nil {
			t.Fatalf("New admits the program, WithMagic rejects it: %v", merr)
		}
		mm, merr := mag.Run()
		if err != nil || merr != nil {
			return
		}
		if !mm.DB().Equal(m.DB()) {
			t.Fatalf("a WithMagic engine's Run:\n%s\nthe plain engine's:\n%s", mm, m)
		}
		c, err := eng.Materialize()
		if err != nil {
			t.Fatalf("Materialize after a Run: %v", err)
		}
		if cm, err := c.Run(); err != nil || !cm.DB().Equal(m.DB()) {
			t.Fatalf("the clone's Run (%v):\n%s\nthe engine's:\n%s", err, cm, m)
		}
	})
}
