package term

// Structural hashing for terms and facts: a 64-bit FNV-1a digest over kind
// tags and contents, memoized on the heap-allocated kinds (Compound, Set,
// Fact).  Two equal terms always have equal hashes, so hash
// inequality is a constant-time disequality certificate; hash-keyed
// containers resolve the (astronomically rare) collisions with the
// structural Equal/EqualFacts fast paths.
//
// Constructors compute the memo eagerly, so hashes of shared terms are
// never written after publication — concurrent readers may hash the same
// term from many goroutines without synchronization.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashSeed is the FNV-1a offset basis: the starting value for HashFold
// chains that combine several term hashes into one (grouping class keys,
// solution-tuple identity).
const HashSeed uint64 = fnvOffset64

// HashFold mixes the 64-bit value v into the running state h with a
// splitmix64-style avalanche round: two multiplies and a shift instead of
// eight dependent FNV byte rounds, with full 64-bit diffusion.
func HashFold(h, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h
}

// EqualTermsExcept reports pairwise equality of two equal-length term
// slices, ignoring position skip (pass -1 to compare every position).
// Used by hash-keyed grouping-class maps to resolve collisions.
func EqualTermsExcept(a, b []Term, skip int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if i == skip {
			continue
		}
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Hash returns the structural FNV-1a digest of the term.
func (a Atom) Hash() uint64 { return fnvString(fnvByte(fnvOffset64, 'a'), string(a)) }

// Hash returns the structural FNV-1a digest of the term.
func (i Int) Hash() uint64 { return HashFold(fnvByte(fnvOffset64, 'i'), uint64(i)) }

// Hash returns the structural FNV-1a digest of the term.
func (s Str) Hash() uint64 { return fnvString(fnvByte(fnvOffset64, 's'), string(s)) }

// Hash returns the structural FNV-1a digest of the term.
func (v Var) Hash() uint64 { return fnvString(fnvByte(fnvOffset64, 'v'), string(v)) }

// Hash returns the structural FNV-1a digest of the term, memoized on first
// use.  NewCompound computes it eagerly, so shared compounds are race-free.
func (c *Compound) Hash() uint64 {
	if c.hash != 0 {
		return c.hash
	}
	h := fnvByte(fnvOffset64, 'c')
	h = fnvString(h, c.Functor)
	h = fnvByte(h, 0) // functor / arity delimiter
	h = HashFold(h, uint64(len(c.Args)))
	for _, a := range c.Args {
		h = HashFold(h, a.Hash())
	}
	if h == 0 {
		h = 1 // keep 0 as the "unset" sentinel
	}
	c.hash = h
	return h
}

// Hash returns the structural FNV-1a digest of the set, memoized on first
// use.  Canonical element order makes it order- and duplicate-insensitive:
// NewSet({2,1,2}) and NewSet({1,2}) hash identically.  The cardinality is
// folded in last, so a merge walk that builds a set computes its hash
// without knowing its size in advance.
func (s *Set) Hash() uint64 {
	if s.hash != 0 {
		return s.hash
	}
	h := fnvByte(fnvOffset64, 'S')
	for _, e := range s.elems {
		h = HashFold(h, e.Hash())
	}
	s.hash = setHash(h, len(s.elems))
	return s.hash
}

// setHash finishes the hash of a set of n elements from the fold h of its
// elements' hashes.
func setHash(h uint64, n int) uint64 {
	if h = HashFold(h, uint64(n)); h == 0 {
		h = 1 // keep 0 as the "unset" sentinel
	}
	return h
}

// Hash returns the structural FNV-1a digest of the grouping construct.
// Groups are pure syntax and never stored, so the result is not memoized.
func (g *Group) Hash() uint64 {
	return HashFold(fnvByte(fnvOffset64, 'g'), g.Inner.Hash())
}

// Hash returns the structural FNV-1a digest of the fact (predicate symbol,
// arity, argument hashes), memoized on first use.  NewFact computes it
// eagerly, so shared facts are race-free.
func (f *Fact) Hash() uint64 {
	if f.hash != 0 {
		return f.hash
	}
	f.hash = HashFactArgs(f.Pred, f.Args)
	return f.hash
}

// HashFactArgs returns the hash the fact pred(args...) would have, without
// constructing it — duplicate checks probe hash tables with it before
// paying for an allocation.  It is the single definition of fact hashing;
// Fact.Hash memoizes it.
func HashFactArgs(pred string, args []Term) uint64 {
	h := fnvByte(fnvOffset64, 'F')
	h = fnvString(h, pred)
	h = fnvByte(h, 0)
	h = HashFold(h, uint64(len(args)))
	for _, a := range args {
		h = HashFold(h, a.Hash())
	}
	if h == 0 {
		h = 1
	}
	return h
}
