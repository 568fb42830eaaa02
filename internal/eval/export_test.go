package eval

// PlansCompiled is plansCompiled for the package's external tests.
func PlansCompiled() int64 { return plansCompiled.Load() }
