package store

// LoadOpts is the options argument of DB.LoadFacts; no field of it changes
// what a load does.
type LoadOpts struct {
	// Deprecated: Pack is accepted and ignored — the store has one fact
	// representation.  It remains only because the frozen benchmark module
	// sets it; ROADMAP ("bench/ is frozen") has it dropped with that use.
	Pack bool
}
