package core

import (
	"errors"
	"math/bits"
	"strings"
	"testing"

	"dimatch/internal/pattern"
)

func testParams() Params {
	return Params{
		Bits:      1 << 14,
		Hashes:    4,
		Samples:   3,
		Epsilon:   0,
		Tolerance: ToleranceScaled,
		Seed:      7,
	}
}

// buildPaperFilter encodes the paper's running example: global {3,4,5} with
// locals {1,2,3} and {2,2,2}.
func buildPaperFilter(t *testing.T, p Params) *Filter {
	t.Helper()
	enc, err := NewEncoder(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}
	if err := enc.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	return enc.Filter()
}

func TestFilterWeightTable(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	ws := f.Weights()
	if len(ws) != 3 {
		t.Fatalf("weight table has %d rows, want 3 (= 2^2 - 1 combinations)", len(ws))
	}
	// Numerators: {1,2,3} -> 6, {2,2,2} -> 6, both -> 12; denominator 12.
	byMask := make(map[pattern.Subset]WeightEntry, 3)
	for _, w := range ws {
		byMask[w.Mask] = w
		if w.Denominator != 12 {
			t.Fatalf("denominator = %d, want 12", w.Denominator)
		}
		if w.Query != 1 {
			t.Fatalf("query = %d, want 1", w.Query)
		}
	}
	if byMask[0b01].Numerator != 6 || byMask[0b10].Numerator != 6 || byMask[0b11].Numerator != 12 {
		t.Fatalf("numerators wrong: %+v", byMask)
	}
	if got := byMask[0b11].Value(); got != 1.0 {
		t.Fatalf("full combination weight = %v, want 1", got)
	}
	if got := byMask[0b01].Value(); got != 0.5 {
		t.Fatalf("local weight = %v, want 0.5", got)
	}
}

func TestFilterProbeKnownValues(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	// Accumulated forms: {1,3,6}, {2,4,6}, {3,7,12}; with Samples=3 and
	// length 3 every position is sampled.
	ids, ok := f.probe(0, 1, nil)
	if !ok || len(ids) == 0 {
		t.Fatal("accumulated value 1 at slot 0 should be present")
	}
	if _, ok := f.probe(0, 100, nil); ok {
		t.Fatal("value 100 should be absent")
	}
}

func TestFilterZeroWeightCombinationSkipped(t *testing.T) {
	p := testParams()
	enc, err := NewEncoder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Second local is all zeros: combinations {1} and {0,1} have equal
	// patterns; {1} alone has numerator 0 and must be skipped.
	q := Query{ID: 9, Locals: []pattern.Pattern{{1, 2}, {0, 0}}}
	if err := enc.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	for _, w := range enc.Filter().Weights() {
		if w.Numerator == 0 {
			t.Fatalf("zero-weight combination %s made it into the table", w.Mask)
		}
	}
}

// setBits lists the set bits of a word array in ascending order: the slot
// indexes a serialized filter carries beside its CSR lists.
func setBits(words []uint64) []uint64 {
	var out []uint64
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(wi)*64+uint64(bits.TrailingZeros64(w)))
		}
	}
	return out
}

// partsOf copies a filter's serialized parts, so a test may mutate them.
func partsOf(f *Filter) (words, bitIdx []uint64, offs []uint32, ids []WeightID, weights []WeightEntry) {
	o, i := f.Slots()
	words = append([]uint64(nil), f.Words()...)
	return words, setBits(words), append([]uint32(nil), o...), append([]WeightID(nil), i...), append([]WeightEntry(nil), f.Weights()...)
}

func TestFilterRoundTripThroughParts(t *testing.T) {
	p := testParams()
	p.Epsilon = 1
	f := buildPaperFilter(t, p)
	words, bitIdx, offs, ids, weights := partsOf(f)
	g, err := FromParts(p, f.Length(), words, bitIdx, offs, ids, weights, f.Inserted())
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed filter must agree with the original on every probe
	// over a sweep covering present and absent values.
	for slot := 0; slot < 3; slot++ {
		for v := int64(0); v < 40; v++ {
			wa, oka := f.probe(slot, v, nil)
			wb, okb := g.probe(slot, v, nil)
			if oka != okb || len(wa) != len(wb) {
				t.Fatalf("probe(%d,%d) diverged after round trip", slot, v)
			}
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("probe(%d,%d) weights diverged", slot, v)
				}
			}
		}
	}
	if g.Inserted() != f.Inserted() {
		t.Fatal("inserted count lost")
	}
}

func TestFromPartsRejectsCorruption(t *testing.T) {
	p := testParams()
	f := buildPaperFilter(t, p)
	words, bitIdx, offs, ids, weights := partsOf(f)
	if len(bitIdx) < 2 {
		t.Fatalf("paper filter has %d set bits; the cases below need 2", len(bitIdx))
	}
	set := make(map[uint64]bool, len(bitIdx))
	for _, b := range bitIdx {
		set[b] = true
	}

	type parts struct {
		bi   []uint64
		offs []uint32
		ids  []WeightID
		ws   []WeightEntry
	}
	tests := []struct {
		name   string
		mutate func(t *testing.T, c *parts)
	}{
		{
			name:   "slot count mismatch",
			mutate: func(t *testing.T, c *parts) { c.bi = c.bi[:len(c.bi)-1] },
		},
		{
			name:   "dangling pointer",
			mutate: func(t *testing.T, c *parts) { c.ids[0] = 99 },
		},
		{
			name: "unsorted list",
			mutate: func(t *testing.T, c *parts) {
				for r := 0; r+1 < len(c.offs); r++ {
					if lo := c.offs[r]; c.offs[r+1]-lo >= 2 {
						c.ids[lo], c.ids[lo+1] = c.ids[lo+1], c.ids[lo]
						return
					}
				}
				t.Fatal("no pointer list with two entries to unsort")
			},
		},
		{
			name:   "empty list",
			mutate: func(t *testing.T, c *parts) { c.offs[1] = c.offs[0] },
		},
		{
			name: "slot on unset bit",
			mutate: func(t *testing.T, c *parts) {
				// Claim a slot on an unset bit below the second slot, so the
				// indexes still ascend and only the bit itself is wrong.
				for cand := uint64(0); cand < c.bi[1]; cand++ {
					if !set[cand] {
						c.bi[0] = cand
						return
					}
				}
				t.Fatal("no unset bit below the second slot")
			},
		},
		{
			name:   "duplicate slot index",
			mutate: func(t *testing.T, c *parts) { c.bi[1] = c.bi[0] },
		},
		{
			name:   "out-of-order slot index",
			mutate: func(t *testing.T, c *parts) { c.bi[0], c.bi[1] = c.bi[1], c.bi[0] },
		},
		{
			name:   "offsets past the ids",
			mutate: func(t *testing.T, c *parts) { c.offs[len(c.offs)-1]++ },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := parts{
				bi:   append([]uint64(nil), bitIdx...),
				offs: append([]uint32(nil), offs...),
				ids:  append([]WeightID(nil), ids...),
				ws:   append([]WeightEntry(nil), weights...),
			}
			tt.mutate(t, &c)
			w := append([]uint64(nil), words...)
			_, err := FromParts(p, f.Length(), w, c.bi, c.offs, c.ids, c.ws, f.Inserted())
			if !errors.Is(err, ErrCorruptFilter) {
				t.Fatalf("err = %v, want ErrCorruptFilter", err)
			}
		})
	}
}

// TestFromPartsRejects2To32Bits covers the largest filter a 32-bit set-bit
// count cannot describe: with all 2^32 bits set the count wraps to 0, so
// an all-ones array with no slot lists would look consistent and the
// first probe would index past offs. The parameters are rejected before
// the words are read, so the test needs no 512 MiB array; it checks the
// error names the bit count, not the missing words.
func TestFromPartsRejects2To32Bits(t *testing.T) {
	p := testParams()
	p.Bits = 1 << 32
	_, err := FromParts(p, 12, nil, nil, []uint32{0}, nil, nil, 0)
	if !errors.Is(err, ErrCorruptFilter) || !strings.Contains(err.Error(), "Params.Bits") {
		t.Fatalf("err = %v, want ErrCorruptFilter for Params.Bits", err)
	}
}

func TestFilterSizeBytes(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	if f.SizeBytes() <= f.Params().Bits/8 {
		t.Fatal("SizeBytes should exceed the raw bit array (slots + weights)")
	}
}

func TestWeightLookup(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	w, err := f.Weight(0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Denominator != 12 {
		t.Fatalf("weight 0 = %+v", w)
	}
	if _, err := f.Weight(WeightID(len(f.Weights()))); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestIntersectSorted(t *testing.T) {
	tests := []struct {
		name string
		a, b []WeightID
		want []WeightID
	}{
		{name: "disjoint", a: []WeightID{1, 3}, b: []WeightID{2, 4}, want: []WeightID{}},
		{name: "subset", a: []WeightID{1, 2, 3}, b: []WeightID{2}, want: []WeightID{2}},
		{name: "identical", a: []WeightID{5, 9}, b: []WeightID{5, 9}, want: []WeightID{5, 9}},
		{name: "empty a", a: nil, b: []WeightID{1}, want: []WeightID{}},
		{name: "interleaved", a: []WeightID{1, 4, 6, 9}, b: []WeightID{0, 4, 9, 12}, want: []WeightID{4, 9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := intersectSorted(append([]WeightID(nil), tt.a...), tt.b)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestNewFilterValidation(t *testing.T) {
	if _, err := newFilter(Params{}, 3); err == nil {
		t.Fatal("expected invalid params error")
	}
	if _, err := newFilter(testParams(), 0); err == nil {
		t.Fatal("expected invalid length error")
	}
}
