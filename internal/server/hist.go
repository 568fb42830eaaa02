package server

// HDR-style latency histogram: fixed-size logarithmic bucketing with 128
// linear sub-buckets per power of two, so values below 128 are recorded
// exactly and everything above has bounded relative error (one part in 64,
// ~1.6%).  Recording is a single array increment — no allocation, no
// locking (each client records into its own Hist and the runner merges at
// the end) — and the whole value range of int64 nanoseconds is covered, so
// a multi-second stall lands in a bucket instead of being dropped.

import "math/bits"

// subBits sets the sub-bucket resolution: 2^subBits linear buckets per
// power-of-two value range.
const subBits = 7

// numBuckets covers every non-negative int64: the exact region [0, 2^7)
// plus 64 buckets for each of the 56 remaining exponent ranges.
const numBuckets = 1<<subBits + (63-subBits)*(1<<(subBits-1))

// Hist is a latency histogram.  The zero value is NOT ready to use; call
// NewHist.  Record and Percentile must not race; the intended pattern is
// one Hist per goroutine, merged after the run.
type Hist struct {
	counts []int64
	count  int64
	sum    int64
	max    int64
}

func NewHist() *Hist {
	return &Hist{counts: make([]int64, numBuckets)}
}

// bucketOf maps a value to its bucket index.  Negative values clamp to 0.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	// v has L significant bits, L > subBits: quantize away the low
	// exp = L-subBits bits, leaving the top subBits bits (v>>exp is in
	// [2^(subBits-1), 2^subBits)), 64 buckets per exponent group.
	exp := bits.Len64(uint64(v)) - subBits
	return 1<<subBits + (exp-1)*(1<<(subBits-1)) + int(v>>uint(exp)) - 1<<(subBits-1)
}

// bucketMax returns the largest value the bucket covers, the
// representative reported by Percentile.
func bucketMax(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	g := i - 1<<subBits
	exp := g/(1<<(subBits-1)) + 1
	top := int64(g%(1<<(subBits-1))) + 1<<(subBits-1)
	return (top+1)<<uint(exp) - 1
}

// Record adds one observation.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count }

// Max returns the largest recorded observation, exactly.
func (h *Hist) Max() int64 { return h.max }

// Mean returns the arithmetic mean of the recorded observations.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the value at or below which p percent of the
// observations fall (nearest-rank), as the covering bucket's upper bound
// clamped to the observed maximum.  Percentile(50) is the median,
// Percentile(100) the max.  Returns 0 on an empty histogram.
func (h *Hist) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.count))
	if float64(rank)*100 < p*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMax(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
