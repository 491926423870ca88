package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dimatch/internal/bitset"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// WeightID is a pointer into a Filter's weight table. The paper's WBF
// attaches "a pointer pointing to the weight of corresponding hashed values"
// to each set bit; we realize the pointer as a table index so weights ship
// once, not per bit.
type WeightID uint32

// WeightEntry is one row of the weight table: the exact weight of one
// combination of one query's local patterns, stored as an integer fraction
// Numerator/Denominator (see DESIGN.md decision D2). The denominator is the
// query's global value sum, so the full combination has weight exactly 1 and
// weights of disjoint combinations add.
type WeightEntry struct {
	Query       QueryID
	Mask        pattern.Subset
	Numerator   int64
	Denominator int64
}

// Value returns the weight as a float in (0, 1], for reporting only — the
// matching pipeline compares integer numerators.
func (w WeightEntry) Value() float64 {
	if w.Denominator == 0 {
		return 0
	}
	return float64(w.Numerator) / float64(w.Denominator)
}

// Filter is the Weighted Bloom Filter: a bit array in which every set bit
// carries the list of weight pointers of the values that set it, plus the
// weight table those pointers index.
//
// The pointer lists live in one CSR (compressed sparse row) layout instead
// of a per-bit map: the r-th set bit in ascending order owns
// ids[offs[r]:offs[r+1]], and rank[w] counts the set bits in the words
// before word w, so a set bit's row r is one table read plus one popcount.
// Sealing an encoded filter or decoding a received one therefore costs a
// fixed number of allocations however many bits are set.
type Filter struct {
	params    Params
	length    int   // time-series length the filter was built for
	sampleIdx []int // deterministic sample positions, shared with stations
	bits      *bitset.Set
	rank      []uint32   // per word: set bits in all earlier words
	offs      []uint32   // per set bit, then one: row bounds into ids
	ids       []WeightID // every row's sorted unique weight IDs, packed
	weights   []WeightEntry
	family    hash.Family
	inserted  uint64 // total value insertions (with band expansion)
	distinct  uint64 // distinct hashed keys (what the FP model sees)
	keys      keyer
}

// ErrCorruptFilter is wrapped by every error FromParts returns: the
// serialized parts do not describe a well-formed filter.
var ErrCorruptFilter = errors.New("core: corrupt filter")

// keyer maps (sample slot, accumulated value) pairs to hashed elements. It
// is shared by the WBF and the BF baseline so both hash identically.
type keyer struct {
	salted bool
	salts  []uint64
}

func newKeyer(p Params, slots int) keyer {
	k := keyer{salted: p.PositionSalted}
	if !k.salted {
		return k
	}
	k.salts = make([]uint64, slots)
	for i := range k.salts {
		k.salts[i] = hash.Mix64(p.Seed ^ (uint64(i+1) * 0x8f3c9d1b5a7e42d1))
	}
	return k
}

// key returns the hashed element for a value observed at a sample slot.
// Without position salting (the paper's scheme) the value is hashed as-is:
// the time information lives purely in the accumulation transform. With
// salting, each sample slot gets its own key space.
func (k keyer) key(slot int, value int64) int64 {
	if !k.salted {
		return value
	}
	return int64(hash.Mix64(uint64(value)) ^ k.salts[slot])
}

// newFilter returns a filter without bit array or pointer lists: the
// Encoder allocates a fresh bit array, FromParts adopts a decoded one.
func newFilter(p Params, length int) (*Filter, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if length <= 0 {
		return nil, fmt.Errorf("core: filter pattern length %d, want > 0", length)
	}
	idx, err := pattern.SampleIndexes(length, p.Samples)
	if err != nil {
		return nil, err
	}
	return &Filter{
		params:    p,
		length:    length,
		sampleIdx: idx,
		family:    hash.NewFamily(p.Seed, p.Hashes, p.Bits),
		keys:      newKeyer(p, len(idx)),
	}, nil
}

// key maps a (sample slot, accumulated value) pair to the hashed element.
func (f *Filter) key(slot int, value int64) int64 {
	return f.keys.key(slot, value)
}

// addWeight appends a weight entry and returns its pointer.
func (f *Filter) addWeight(e WeightEntry) WeightID {
	f.weights = append(f.weights, e)
	return WeightID(len(f.weights) - 1)
}

// indexRank fills the per-word rank table from the bit array and returns
// the number of set bits.
func (f *Filter) indexRank() uint32 {
	words := f.bits.Raw()
	f.rank = make([]uint32, len(words))
	n := uint32(0)
	for i, w := range words {
		f.rank[i] = n
		n += uint32(bits.OnesCount64(w))
	}
	return n
}

// rankOf returns the number of set bits below bit idx — the CSR row of idx
// when idx is set.
//
//dimatch:noalloc
func (f *Filter) rankOf(idx uint64) uint32 {
	w := idx / 64
	return f.rank[w] + uint32(bits.OnesCount64(f.bits.Raw()[w]&(1<<(idx%64)-1)))
}

// seal builds the pointer lists from the Encoder's pairs, each bit<<32 | id
// for a bit already set in f.bits, recorded in ascending id order. It is a
// counting sort keyed on each bit's rank, which is linear where a
// comparison sort of the pairs is not: count each row, prefix-sum the
// counts into row bounds, scatter the ids (stable, so every row stays
// ascending), then compact away the repeats a band or a hash collision
// records for the same bit and id.
func (f *Filter) seal(pairs []uint64) {
	occupied := f.indexRank()
	offs := make([]uint32, occupied+1)
	for _, p := range pairs {
		offs[f.rankOf(p>>32)+1]++
	}
	for r := uint32(1); r <= occupied; r++ {
		offs[r] += offs[r-1]
	}
	next := slices.Clone(offs[:occupied])
	ids := make([]WeightID, len(pairs))
	for _, p := range pairs {
		r := f.rankOf(p >> 32)
		ids[next[r]] = WeightID(p)
		next[r]++
	}
	n, lo := uint32(0), uint32(0)
	for r := uint32(1); r <= occupied; r++ {
		row := slices.Compact(ids[lo:offs[r]])
		lo = offs[r]
		n += uint32(copy(ids[n:], row))
		offs[r] = n
	}
	f.offs, f.ids = offs, ids[:n:n]
}

// probe looks one value up. It returns (nil, false) if any bit is unset —
// the value is definitely absent — and otherwise the sorted intersection of
// the weight-pointer lists across the k bits: the weights every probed bit
// agrees on.
//
//dimatch:noalloc
func (f *Filter) probe(slot int, value int64, scratch []WeightID) ([]WeightID, bool) {
	var buf [16]uint64
	indexes := f.family.Indexes(f.key(slot, value), buf[:0])
	for _, idx := range indexes {
		if !f.bits.Test(idx) {
			return nil, false
		}
	}
	out := scratch[:0]
	for i, idx := range indexes {
		r := f.rankOf(idx)
		list := f.ids[f.offs[r]:f.offs[r+1]]
		if i == 0 {
			out = append(out, list...)
			continue
		}
		out = intersectSorted(out, list)
		if len(out) == 0 {
			// All bits set but no common weight: a hash-collision artifact;
			// the WBF rejects it where a plain BF would accept.
			return nil, false
		}
	}
	return out, true
}

// intersectSorted intersects two ascending WeightID slices in place of a,
// returning the (possibly shortened) result.
//
//dimatch:noalloc
func intersectSorted(a, b []WeightID) []WeightID {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Params returns the filter's parameters.
func (f *Filter) Params() Params { return f.params }

// Length returns the time-series length the filter encodes.
func (f *Filter) Length() int { return f.length }

// SampleIndexes returns the sample positions stations must probe. Callers
// must not mutate the returned slice.
func (f *Filter) SampleIndexes() []int { return f.sampleIdx }

// Weights returns the weight table. Callers must not mutate it.
func (f *Filter) Weights() []WeightEntry { return f.weights }

// Weight returns the entry for id, or an error for a dangling pointer.
func (f *Filter) Weight(id WeightID) (WeightEntry, error) {
	if int(id) >= len(f.weights) {
		return WeightEntry{}, fmt.Errorf("core: weight id %d out of range [0,%d)", id, len(f.weights))
	}
	return f.weights[id], nil
}

// Inserted returns the number of value insertions performed, including band
// expansion (the paper's n = a·b scaled by the ε bands).
func (f *Filter) Inserted() uint64 { return f.inserted }

// DistinctKeys returns the number of distinct hashed keys — the n of the
// false-positive model (overlapping ε bands and repeated combination values
// insert the same key many times but set bits once).
func (f *Filter) DistinctKeys() uint64 {
	if f.distinct == 0 {
		return f.inserted // reconstructed filters fall back to the upper bound
	}
	return f.distinct
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return f.bits.FillRatio() }

// Words exposes the bit array for serialization. Callers must not mutate
// it.
func (f *Filter) Words() []uint64 { return f.bits.Raw() }

// Slots returns the pointer lists in CSR form for serialization: the list
// of the i-th set bit of Words, counting in ascending bit order, is
// ids[offs[i]:offs[i+1]]. Callers must not mutate either slice.
func (f *Filter) Slots() (offs []uint32, ids []WeightID) { return f.offs, f.ids }

// SizeBytes returns the approximate in-memory footprint: bit array, slot
// lists (4 bytes per pointer + 12 bytes per occupied bit for the index and
// list header) and weight table rows (16 bytes of payload each). Used by the
// storage- and communication-cost experiments.
func (f *Filter) SizeBytes() uint64 {
	size := f.bits.SizeBytes()
	size += 12*uint64(len(f.offs)-1) + 4*uint64(len(f.ids))
	size += 16 * uint64(len(f.weights))
	return size
}

// FromParts reconstructs a Filter from serialized state in CSR form:
// bitIdx[i] is the bit the i-th pointer list sits on, as the wire carries
// it, and that list is ids[offs[i]:offs[i+1]]. Because the layout finds a
// list by its bit's rank, bitIdx must name exactly the set bits, strictly
// ascending: a duplicate, out-of-order, out-of-range or unset index is
// rejected, as is an empty, unsorted or dangling pointer list. Every
// rejection wraps ErrCorruptFilter. FromParts takes ownership of words,
// offs, ids and weights; bitIdx is only read.
func FromParts(p Params, length int, words []uint64, bitIdx []uint64, offs []uint32, ids []WeightID, weights []WeightEntry, inserted uint64) (*Filter, error) {
	f, err := newFilter(p, length)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptFilter, err)
	}
	if f.bits, err = bitset.Wrap(words, f.params.Bits); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptFilter, err)
	}
	if len(offs) != len(bitIdx)+1 {
		return nil, fmt.Errorf("%w: %d slot indexes but %d pointer-list offsets", ErrCorruptFilter, len(bitIdx), len(offs))
	}
	if set := f.indexRank(); set != uint32(len(bitIdx)) {
		return nil, fmt.Errorf("%w: %d set bits but %d slot lists", ErrCorruptFilter, set, len(bitIdx))
	}
	if offs[0] != 0 || uint64(offs[len(bitIdx)]) != uint64(len(ids)) {
		return nil, fmt.Errorf("%w: pointer-list offsets span [%d,%d), want [0,%d)", ErrCorruptFilter, offs[0], offs[len(bitIdx)], len(ids))
	}
	for i, idx := range bitIdx {
		switch {
		case idx >= f.params.Bits:
			return nil, fmt.Errorf("%w: slot index %d out of range", ErrCorruptFilter, idx)
		case i > 0 && idx <= bitIdx[i-1]:
			return nil, fmt.Errorf("%w: slot index %d follows %d (duplicate or out of order)", ErrCorruptFilter, idx, bitIdx[i-1])
		case !f.bits.Test(idx):
			return nil, fmt.Errorf("%w: slot list on unset bit %d", ErrCorruptFilter, idx)
		case offs[i+1] <= offs[i]:
			return nil, fmt.Errorf("%w: empty pointer list at bit %d", ErrCorruptFilter, idx)
		case offs[i+1] > uint32(len(ids)):
			return nil, fmt.Errorf("%w: pointer list at bit %d ends past %d ids", ErrCorruptFilter, idx, len(ids))
		}
		list := ids[offs[i]:offs[i+1]]
		for j, id := range list {
			if int(id) >= len(weights) {
				return nil, fmt.Errorf("%w: dangling weight pointer %d at bit %d", ErrCorruptFilter, id, idx)
			}
			if j > 0 && list[j-1] >= id {
				return nil, fmt.Errorf("%w: unsorted pointer list at bit %d", ErrCorruptFilter, idx)
			}
		}
	}
	f.offs, f.ids, f.weights = offs, ids, weights
	f.inserted = inserted
	return f, nil
}
