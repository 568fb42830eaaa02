package store

// Config carries the tunables of a database's relations.  The zero value is
// not useful; start from DefaultConfig.  Relations are created single-shard
// and reshard only when a bulk load makes parallelism worthwhile.
type Config struct {
	// Shards is the per-relation shard count bulk loads spread fact
	// interning across (rounded up to a power of two,
	// capped at maxShards).  1 disables sharding.  Relations created by
	// single-fact Insert stay single-shard until a large enough
	// InsertBatch reshards them, so the sequential paths keep their exact
	// pre-shard layout and insertion order.
	Shards int
}

// maxShards bounds the shard count: beyond 256 the per-shard tables of
// ordinary relations are too small to amortize their fixed cost.
const maxShards = 256

// DefaultConfig returns the standard configuration: 8 shards for bulk-loaded
// relations.
func DefaultConfig() Config { return Config{Shards: 8} }

// normalize clamps the shard count to the next power of two in
// [1, maxShards].
func (c Config) normalize() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > maxShards {
		c.Shards = maxShards
	}
	p := 1
	for p < c.Shards {
		p *= 2
	}
	c.Shards = p
	return c
}

// shardBitsFor returns log2(shards) for a power-of-two shard count.
func shardBitsFor(shards int) uint {
	b := uint(0)
	for 1<<b < shards {
		b++
	}
	return b
}

// LoadOpts configures one bulk load (DB.LoadFacts, Relation.InsertBatch).
type LoadOpts struct {
	// Workers is the number of goroutines interning facts shard-parallel.
	// Values below 2 run the same shard-partitioned algorithm on one
	// goroutine, so the resulting fact order is identical across worker
	// counts.
	Workers int
	// Deprecated: Pack is accepted and ignored — the store has one fact
	// representation.  It remains only because the frozen benchmark module
	// sets it; ROADMAP ("bench/ is frozen") has it dropped with that use.
	Pack bool
	// Shards reshards the target relation to this many shards before
	// loading, when it is still small enough to reshard cheaply.  0 means
	// the owning DB's configured count (or 1 for a bare Relation).
	Shards int
}
