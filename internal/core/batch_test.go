package core

import (
	"testing"

	"dimatch/internal/pattern"
)

// batchFilter builds a filter over a handful of queries for the pool tests.
func batchFilter(t testing.TB, queries []Query) *Filter {
	t.Helper()
	params := Params{
		Bits:      1 << 14,
		Hashes:    3,
		Samples:   4,
		Epsilon:   0,
		Tolerance: ToleranceScaled,
		Seed:      7,
	}
	enc, err := NewEncoder(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Filter()
}

// TestMatchResidentsMatchesSerialWalk pins the pool against the reference
// serial walk: any worker count must produce the identical report list.
func TestMatchResidentsMatchesSerialWalk(t *testing.T) {
	queries := []Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}},
		{ID: 2, Locals: []pattern.Pattern{{5, 5, 5, 5}}},
	}
	f := batchFilter(t, queries)

	var persons []PersonID
	var locals []pattern.Pattern
	// The query pieces themselves, their sums, and noise.
	candidates := []pattern.Pattern{
		{1, 2, 3, 4}, {2, 0, 1, 1}, {3, 2, 4, 5}, {5, 5, 5, 5},
		{9, 9, 9, 9}, {0, 0, 0, 1}, {1, 1, 1, 1}, {2, 2, 2, 2},
	}
	for i := 0; i < 64; i++ {
		persons = append(persons, PersonID(i*3+1))
		locals = append(locals, candidates[i%len(candidates)])
	}

	want, err := MatchResidents(f, persons, locals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial walk matched nothing; test data broken")
	}
	for _, workers := range []int{0, 2, 3, 7, 64, 1000} {
		got, err := MatchResidents(f, persons, locals, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Person != want[i].Person {
				t.Fatalf("workers=%d: report %d person %d, want %d", workers, i, got[i].Person, want[i].Person)
			}
			if len(got[i].WeightIDs) != len(want[i].WeightIDs) {
				t.Fatalf("workers=%d: report %d weight count diverged", workers, i)
			}
			for j := range want[i].WeightIDs {
				if got[i].WeightIDs[j] != want[i].WeightIDs[j] {
					t.Fatalf("workers=%d: report %d weight %d diverged", workers, i, j)
				}
			}
		}
	}
}

func TestMatchResidentsEdgeCases(t *testing.T) {
	f := batchFilter(t, []Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}}}})
	if _, err := MatchResidents(f, []PersonID{1}, nil, 0); err == nil {
		t.Fatal("mismatched parallel slices accepted")
	}
	got, err := MatchResidents(f, nil, nil, 0)
	if err != nil || got != nil {
		t.Fatalf("empty store: %v, %v", got, err)
	}
	// A resident from another time window is skipped, not an error.
	got, err = MatchResidents(f, []PersonID{5}, []pattern.Pattern{{1, 2}}, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("length-mismatched resident: %v, %v", got, err)
	}
}

// TestAggregatorAddFromMergesTables models a search split into rounds: the
// same person is reported once via a combined (multi-query) table and once
// via a one-query table; the accumulation must equal two reports through a
// single table.
func TestAggregatorAddFromMergesTables(t *testing.T) {
	q := Query{ID: 3, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}}
	other := Query{ID: 9, Locals: []pattern.Pattern{{4, 4, 4, 4}}}
	combined := batchFilter(t, []Query{q, other})
	single := batchFilter(t, []Query{q})

	findWeight := func(f *Filter, query QueryID, num int64) WeightID {
		for i, w := range f.Weights() {
			if w.Query == query && w.Numerator == num {
				return WeightID(i)
			}
		}
		t.Fatalf("no weight entry for query %d numerator %d", query, num)
		return 0
	}
	// Piece sums: local 0 sums to 10, local 1 sums to 4; global is 14.
	wCombined := findWeight(combined, 3, 10)
	wSingle := findWeight(single, 3, 4)

	agg := NewBatchAggregator()
	if err := agg.AddFrom(combined.Weights(), Report{Person: 77, WeightIDs: []WeightID{wCombined}}); err != nil {
		t.Fatal(err)
	}
	if err := agg.AddFrom(single.Weights(), Report{Person: 77, WeightIDs: []WeightID{wSingle}}); err != nil {
		t.Fatal(err)
	}
	results := agg.TopK(3, 0)
	if len(results) != 1 {
		t.Fatalf("%d results, want 1", len(results))
	}
	r := results[0]
	if r.Person != 77 || r.Numerator != 14 || r.Denominator != 14 || r.Stations != 2 {
		t.Fatalf("merged result %+v, want 14/14 over 2 stations", r)
	}
	if r.Score() != 1.0 {
		t.Fatalf("score %v, want 1 (complete partition across tables)", r.Score())
	}

	// A dangling pointer against the *given* table still fails, even if the
	// other table is longer.
	if err := agg.AddFrom(single.Weights(), Report{Person: 1, WeightIDs: []WeightID{WeightID(len(single.Weights()))}}); err == nil {
		t.Fatal("dangling pointer accepted")
	}
}

// BenchmarkMatchResidents measures the station-side batch walk — the probe
// path the batched pipeline leans on.
func BenchmarkMatchResidents(b *testing.B) {
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{ID: QueryID(i + 1), Locals: []pattern.Pattern{
			{int64(i + 1), 2, 3, 4}, {2, int64(i % 3), 1, 1},
		}}
	}
	f := batchFilter(b, queries)
	var persons []PersonID
	var locals []pattern.Pattern
	for i := 0; i < 2048; i++ {
		persons = append(persons, PersonID(i))
		locals = append(locals, pattern.Pattern{int64(i % 7), 2, 3, int64(i % 5)})
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatchResidents(f, persons, locals, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatchResidents(f, persons, locals, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatcherProbe pins the allocation-free probe path: one Match call
// per iteration over a warm Matcher.
func BenchmarkMatcherProbe(b *testing.B) {
	f := batchFilter(b, []Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}},
	})
	m := NewMatcher(f)
	p := pattern.Pattern{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Match(p); err != nil {
			b.Fatal(err)
		}
	}
}
