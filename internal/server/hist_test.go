package server

import (
	"math/rand"
	"sort"
	"testing"
)

// Buckets must round-trip: every value maps to a bucket whose range
// contains it, and bucket maxima are strictly increasing.
func TestHistBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 999} {
		b := bucketOf(v)
		if hi := bucketMax(b); v > hi {
			t.Errorf("value %d lands in bucket %d with max %d", v, b, hi)
		}
		if b > 0 {
			if lo := bucketMax(b - 1); v <= lo {
				t.Errorf("value %d lands in bucket %d but previous bucket max is %d", v, b, lo)
			}
		}
	}
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		hi := bucketMax(i)
		if hi <= prev {
			t.Fatalf("bucketMax(%d) = %d, not above bucketMax(%d) = %d", i, hi, i-1, prev)
		}
		prev = hi
	}
}

// The known-distribution fixture: values 1..100 are below the exact region
// boundary (128), so every percentile is exact under nearest-rank.
func TestHistExactPercentiles(t *testing.T) {
	h := NewHist()
	perm := rand.New(rand.NewSource(5)).Perm(100)
	for _, i := range perm {
		h.Record(int64(i + 1))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0, 1},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d, want 100", h.Max())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %g, want 50.5", got)
	}
}

// Above the exact region the histogram quantizes; the reported percentile
// must stay within the documented relative error (1/64) of the true one,
// and never above the observed max.
func TestHistLargeValueErrorBound(t *testing.T) {
	h := NewHist()
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000_000) + 1
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		rank := int(p / 100 * float64(len(vals)))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.Percentile(p)
		if got < exact {
			t.Errorf("Percentile(%g) = %d below exact %d", p, got, exact)
		}
		if float64(got-exact) > float64(exact)/64+1 {
			t.Errorf("Percentile(%g) = %d, exact %d: error beyond 1/64", p, got, exact)
		}
	}
	if h.Percentile(100) != h.Max() {
		t.Errorf("Percentile(100) = %d, want max %d", h.Percentile(100), h.Max())
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	e := NewHist()
	if e.Percentile(50) != 0 || e.Count() != 0 || e.Max() != 0 || e.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	a, b := NewHist(), NewHist()
	for v := int64(1); v <= 50; v++ {
		a.Record(v)
	}
	for v := int64(51); v <= 100; v++ {
		b.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	if a.Count() != 100 {
		t.Fatalf("merged Count = %d, want 100", a.Count())
	}
	if got := a.Percentile(95); got != 95 {
		t.Errorf("merged Percentile(95) = %d, want 95", got)
	}
	if a.Max() != 100 {
		t.Errorf("merged Max = %d, want 100", a.Max())
	}
}
