package store

// LoadOpts configures one bulk load (DB.LoadFacts, Relation.InsertBatch).
type LoadOpts struct {
	// Workers is the number of goroutines interning facts shard-parallel.
	// Values below 2 run the same shard-partitioned algorithm on one
	// goroutine, so contents and fact order are identical across worker counts.
	Workers int
	// Deprecated: Pack is accepted and ignored — the store has one fact
	// representation.  It remains only because the frozen benchmark module
	// sets it; ROADMAP ("bench/ is frozen") has it dropped with that use.
	Pack bool
}
