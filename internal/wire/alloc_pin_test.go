// AllocsPerRun pins for the //dimatch:noalloc functions of this package:
// Message.AppendFrame (the hot-path frame renderer behind every pooled
// send) and AppendBatchReplyPayload (a station's streaming batch answer).
// The noalloc analyzer is the static early warning; these tests are the
// runtime ground truth. cmd/di-lint -allocharness reports any annotated
// function missing from this file.
package wire

import (
	"math/rand"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

var frameSink []byte

func TestNoallocMessageAppendFrame(t *testing.T) {
	m := Message{Kind: KindAck, Request: 7, Payload: []byte{1, 2, 3, 4}}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		frameSink = m.AppendFrame(buf[:0])
	}); n != 0 {
		t.Fatalf("Message.AppendFrame allocates %v times per run; //dimatch:noalloc requires 0", n)
	}
}

func TestNoallocAppendBatchReplyPayload(t *testing.T) {
	b := BatchReply{
		Station: 3,
		Queries: 2,
		Reports: []core.Report{
			{Person: 11, WeightIDs: []core.WeightID{1, 2}},
			{Person: 12, WeightIDs: []core.WeightID{3}},
		},
	}
	buf := make([]byte, 0, BatchReplyPayloadSize(b))
	if n := testing.AllocsPerRun(100, func() {
		frameSink = AppendBatchReplyPayload(buf[:0], b)
	}); n != 0 {
		t.Fatalf("AppendBatchReplyPayload allocates %v times per run; //dimatch:noalloc requires 0", n)
	}
}

// TestDecodeBatchQueryAllocsFlat pins the station-side decode of a search
// round to a fixed number of allocations: a 20-query filter in the
// Figure-4 geometry (2^15 bits) costs exactly as many as a 1-query one, so
// a per-slot or per-query allocation cannot creep back into the decoder.
func TestDecodeBatchQueryAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	allocs := func(queries int) float64 {
		params := core.Params{Bits: 1 << 15, Hashes: 4, Samples: 12, Epsilon: 1, Tolerance: core.ToleranceScaled, Seed: 3}
		enc, err := core.NewEncoder(params, 24)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]core.QueryID, queries)
		for q := range ids {
			ids[q] = core.QueryID(q + 1)
			locals := make([]pattern.Pattern, 3)
			for l := range locals {
				locals[l] = make(pattern.Pattern, 24)
				for i := range locals[l] {
					locals[l][i] = rng.Int63n(4)
				}
				locals[l][0]++ // never an all-zero local
			}
			if err := enc.AddQuery(core.Query{ID: ids[q], Locals: locals}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := EncodeBatchQuery(BatchQuery{Queries: ids, Filter: enc.Filter()})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeBatchQuery(m); err != nil {
				panic(err)
			}
		})
	}
	one, twenty := allocs(1), allocs(20)
	if one != twenty {
		t.Fatalf("DecodeBatchQuery: %v allocs for a 1-query filter but %v for a 20-query one; want equal", one, twenty)
	}
	t.Logf("DecodeBatchQuery: %v allocs per decode at 1 and 20 queries", one)
}
