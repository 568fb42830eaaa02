package builtin

import (
	"errors"
	"testing"

	"ldl1/internal/lderr"
	"ldl1/internal/unify"
)

// TestInstantiationErrorTyped pins the structured form of instantiation
// failures: callers get a *lderr.InstantiationError naming the built-in
// and the offending literal, and the sentinel still matches via errors.Is.
func TestInstantiationErrorTyped(t *testing.T) {
	cases := []struct{ src, builtin string }{
		{"member(X, S)", "member"},
		{"union(X, Y, Z)", "union"},
		{"X = Y", "="},
	}
	for _, c := range cases {
		l := lit(t, c.src)
		err := Eval(l, unify.NewBindings(), nil, func() error { return nil })
		var ie *lderr.InstantiationError
		if !errors.As(err, &ie) {
			t.Errorf("%s: want *lderr.InstantiationError, got %v", c.src, err)
			continue
		}
		if ie.Builtin != c.builtin {
			t.Errorf("%s: Builtin = %q, want %q", c.src, ie.Builtin, c.builtin)
		}
		if ie.Literal == "" {
			t.Errorf("%s: Literal is empty", c.src)
		}
		if !errors.Is(err, ErrInstantiation) {
			t.Errorf("%s: does not unwrap to ErrInstantiation", c.src)
		}
	}
}
