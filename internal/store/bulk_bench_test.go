package store

import (
	"testing"

	"ldl1/internal/term"
)

func genLoadFacts(n int, base int64) []*term.Fact {
	vals := int64(n / 4)
	fs := make([]*term.Fact, n)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range fs {
		fs[i] = term.NewFact("edge", term.Int(base+int64(next()%uint64(vals))), term.Int(base+int64(next()%uint64(vals))))
	}
	return fs
}

// BenchmarkStoreBulkLoad is one 100k-fact cold load through the sharded
// bulk path.
func BenchmarkStoreBulkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := genLoadFacts(100_000, int64(i)<<34)
		b.StartTimer()
		db := NewDB()
		db.LoadFacts(fs, LoadOpts{Workers: 1})
	}
}

// BenchmarkStoreLoadLoop is the per-fact baseline of the same load.
func BenchmarkStoreLoadLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := genLoadFacts(100_000, int64(i)<<34)
		b.StartTimer()
		db := NewDB()
		for _, f := range fs {
			db.Insert(f)
		}
	}
}
