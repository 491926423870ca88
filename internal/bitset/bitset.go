// Package bitset implements a fixed-size dense bit set backed by a []uint64.
//
// It is the storage substrate for both the classic Bloom filter baseline and
// the Weighted Bloom Filter. The representation is stable (little-endian word
// order) so a set can be serialized by internal/wire and probed identically
// on another node.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-length bit set. The zero value is an empty set of length 0;
// use New for a set with capacity.
type Set struct {
	words []uint64
	n     uint64 // number of valid bits
}

// New returns a Set holding n bits, all zero.
func New(n uint64) *Set {
	return &Set{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// FromWords reconstructs a Set of n bits from its word representation, e.g.
// after wire decoding. The slice is copied; the caller keeps ownership.
func FromWords(words []uint64, n uint64) (*Set, error) {
	return Wrap(append([]uint64(nil), words...), n)
}

// Wrap is FromWords without the copy: the returned Set takes ownership of
// words, which the caller must not use afterwards. Decoders that fill a
// fresh word slice hand it over this way instead of paying a second copy.
func Wrap(words []uint64, n uint64) (*Set, error) {
	if want := (n + 63) / 64; uint64(len(words)) != want {
		return nil, fmt.Errorf("bitset: %d words cannot hold exactly %d bits (want %d words)", len(words), n, want)
	}
	if n%64 != 0 && len(words) > 0 {
		if tail := words[len(words)-1] >> (n % 64); tail != 0 {
			return nil, fmt.Errorf("bitset: bits set beyond length %d", n)
		}
	}
	return &Set{words: words, n: n}, nil
}

// Len returns the number of bits the set holds.
func (s *Set) Len() uint64 { return s.n }

// Set turns bit i on. It panics if i is out of range, mirroring slice
// indexing semantics: an out-of-range bit is a programming error, not an
// environmental condition.
func (s *Set) Set(i uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i/64] |= 1 << (i % 64)
}

// Test reports whether bit i is on. Panics if i is out of range.
func (s *Set) Test(i uint64) bool {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of bits that are on. The popcount loop runs four
// independent accumulators wide so the per-word counts pipeline instead of
// serializing on one add chain — fill-ratio sampling over large digests is
// a hot path for the adaptive bench harness.
//
//dimatch:noalloc
func (s *Set) Count() uint64 {
	var c0, c1, c2, c3 uint64
	w := s.words
	i := 0
	for ; i+4 <= len(w); i += 4 {
		c0 += uint64(bits.OnesCount64(w[i]))
		c1 += uint64(bits.OnesCount64(w[i+1]))
		c2 += uint64(bits.OnesCount64(w[i+2]))
		c3 += uint64(bits.OnesCount64(w[i+3]))
	}
	for ; i < len(w); i++ {
		c0 += uint64(bits.OnesCount64(w[i]))
	}
	return c0 + c1 + c2 + c3
}

// FillRatio returns Count()/Len(), the fraction of set bits. It returns 0
// for an empty set.
func (s *Set) FillRatio() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Count()) / float64(s.n)
}

// Words returns a copy of the underlying word storage, little-endian word
// order, for serialization.
func (s *Set) Words() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// Raw returns the underlying word storage without copying, in the same
// order as Words. Callers must not mutate it; it is for read-only walks
// (serialization, rank tables) that would otherwise pay a copy per call.
func (s *Set) Raw() []uint64 { return s.words }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	return &Set{
		words: append([]uint64(nil), s.words...),
		n:     s.n,
	}
}

// Equal reports whether two sets have the same length and identical bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// SizeBytes returns the in-memory size of the bit storage in bytes, used by
// the storage-cost experiments.
func (s *Set) SizeBytes() uint64 {
	return uint64(len(s.words)) * 8
}
