package core

import (
	"math/rand"
	"slices"
	"testing"

	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// refWBF is a reference Weighted Bloom Filter in the paper's most direct
// form: a map from every set bit to its sorted, unique weight-pointer list,
// filled by its own walk of Algorithm 1. The CSR Filter must agree with it
// on every observable.
type refWBF struct {
	p        Params
	sample   []int
	family   hash.Family
	keys     keyer
	lists    map[uint64][]WeightID
	weights  []WeightEntry
	distinct map[int64]bool
}

func newRefWBF(t *testing.T, p Params, length int) *refWBF {
	t.Helper()
	p = p.withDefaults()
	idx, err := pattern.SampleIndexes(length, p.Samples)
	if err != nil {
		t.Fatal(err)
	}
	return &refWBF{
		p:        p,
		sample:   idx,
		family:   hash.NewFamily(p.Seed, p.Hashes, p.Bits),
		keys:     newKeyer(p, len(idx)),
		lists:    make(map[uint64][]WeightID),
		distinct: make(map[int64]bool),
	}
}

func (r *refWBF) add(t *testing.T, q Query) {
	t.Helper()
	global, err := q.Global()
	if err != nil {
		t.Fatal(err)
	}
	subsets, err := pattern.EnumerateSubsets(len(q.Locals))
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range subsets {
		num, err := pattern.WeightNumerator(q.Locals, mask)
		if err != nil {
			t.Fatal(err)
		}
		if num == 0 {
			continue
		}
		r.weights = append(r.weights, WeightEntry{Query: q.ID, Mask: mask, Numerator: num, Denominator: global.Sum()})
		id := WeightID(len(r.weights) - 1)
		combined, err := pattern.Combine(q.Locals, mask)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := combined.Accumulate().SampleAt(r.sample)
		if err != nil {
			t.Fatal(err)
		}
		for slot, v := range vals {
			tol := r.p.band(r.sample[slot])
			for u := max(v-tol, 0); u <= v+tol; u++ {
				key := r.keys.key(slot, u)
				r.distinct[key] = true
				var buf [16]uint64
				for _, b := range r.family.Indexes(key, buf[:0]) {
					if list := r.lists[b]; !slices.Contains(list, id) {
						r.lists[b] = append(list, id)
					}
				}
			}
		}
	}
}

// probe mirrors Filter.probe: absent if any bit is unset, otherwise the
// pointers every probed bit's list holds, absent again if there are none.
func (r *refWBF) probe(slot int, v int64) ([]WeightID, bool) {
	var buf [16]uint64
	indexes := r.family.Indexes(r.keys.key(slot, v), buf[:0])
	for _, b := range indexes {
		if _, ok := r.lists[b]; !ok {
			return nil, false
		}
	}
	var out []WeightID
	for _, id := range r.lists[indexes[0]] {
		inAll := true
		for _, b := range indexes[1:] {
			inAll = inAll && slices.Contains(r.lists[b], id)
		}
		if inAll {
			out = append(out, id)
		}
	}
	return out, len(out) > 0
}

func (r *refWBF) sizeBytes() uint64 {
	size := (r.p.Bits + 63) / 64 * 8
	for _, list := range r.lists {
		size += 12 + 4*uint64(len(list))
	}
	return size + 16*uint64(len(r.weights))
}

// randomQueries draws n queries of 1–3 non-empty locals over short series.
func randomQueries(rng *rand.Rand, n, length int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		locals := make([]pattern.Pattern, 1+rng.Intn(3))
		for l := range locals {
			locals[l] = make(pattern.Pattern, length)
			for j := range locals[l] {
				locals[l][j] = rng.Int63n(5)
			}
			locals[l][rng.Intn(length)]++
		}
		qs[i] = Query{ID: QueryID(100 + i), Locals: locals}
	}
	return qs
}

// TestFilterMatchesMapReference checks the CSR filter against the map-of-
// lists reference over seeded query batches of 1 to 20 queries, cycling
// the hash count, ε, tolerance mode and position salting, in filters from
// saturated (64 bits) to the Figure-4 size (2^15 bits). Probe output over a
// value sweep past every encoded value, the weight table, SizeBytes,
// DistinctKeys and FillRatio must all agree — for the encoded filter and
// for one rebuilt through FromParts.
func TestFilterMatchesMapReference(t *testing.T) {
	const length = 8
	rng := rand.New(rand.NewSource(20120612))
	sizes := []uint64{64, 256, 1 << 10, 1 << 12}
	for batch := 1; batch <= 20; batch++ {
		p := Params{
			Bits:           sizes[rng.Intn(len(sizes))],
			Hashes:         1 + batch%7,
			Samples:        1 + rng.Intn(length),
			Epsilon:        int64(batch % 3),
			Tolerance:      ToleranceScaled,
			Seed:           rng.Uint64(),
			PositionSalted: batch/2%2 == 1,
		}
		if batch%2 == 0 {
			p.Tolerance = ToleranceAbsolute
		}
		if batch == 20 {
			p.Bits = 1 << 15
		}
		queries := randomQueries(rng, batch, length)

		enc, err := NewEncoder(p, length)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefWBF(t, p, length)
		for _, q := range queries {
			if err := enc.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			ref.add(t, q)
		}
		f := enc.Filter()
		words, bitIdx, offs, ids, weights := partsOf(f)
		g, err := FromParts(p, length, words, bitIdx, offs, ids, weights, f.Inserted())
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}

		if !slices.Equal(f.Weights(), ref.weights) {
			t.Fatalf("batch %d %+v: weight tables differ", batch, p)
		}
		if got, want := f.DistinctKeys(), uint64(len(ref.distinct)); got != want {
			t.Fatalf("batch %d %+v: DistinctKeys %d, reference %d", batch, p, got, want)
		}
		for name, h := range map[string]*Filter{"encoded": f, "rebuilt": g} {
			if got, want := h.SizeBytes(), ref.sizeBytes(); got != want {
				t.Fatalf("batch %d %+v %s: SizeBytes %d, reference %d", batch, p, name, got, want)
			}
			if got, want := h.FillRatio(), float64(len(ref.lists))/float64(p.Bits); got != want {
				t.Fatalf("batch %d %+v %s: FillRatio %v, reference %v", batch, p, name, got, want)
			}
			maxValue := int64(length*3*5) + p.Epsilon*length + 2
			for slot := range f.SampleIndexes() {
				for v := int64(0); v <= maxValue; v++ {
					got, ok := h.probe(slot, v, nil)
					want, wantOK := ref.probe(slot, v)
					if ok != wantOK || !slices.Equal(got, want) {
						t.Fatalf("batch %d %+v %s: probe(%d, %d) = %v %v, reference %v %v", batch, p, name, slot, v, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}
