package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// TestFrameVersionStamping pins the one-version contract: every kind is
// stamped Version, and the same frame under any other version byte is
// rejected with ErrBadVersion by both decoders.
func TestFrameVersionStamping(t *testing.T) {
	for k := Kind(1); k <= maxKind; k++ {
		frame := Message{Kind: k, Request: 3, Payload: []byte{1}}.Encode()
		if frame[2] != Version {
			t.Fatalf("kind %v stamped version %d, want %d", k, frame[2], Version)
		}
		if _, err := Decode(frame); err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		for v := 0; v < 256; v++ {
			if uint8(v) == Version {
				continue
			}
			frame[2] = uint8(v)
			if _, err := Decode(frame); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("kind %v in version-%d frame: err = %v, want ErrBadVersion", k, v, err)
			}
			if _, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("kind %v in version-%d stream: err = %v, want ErrBadVersion", k, v, err)
			}
		}
	}
}

// requireCurrentVersionOnly checks that frame is stamped Version, decodes,
// and is rejected with ErrBadVersion (never decoded as some other kind)
// under every earlier version byte.
func requireCurrentVersionOnly(t *testing.T, frame []byte) {
	t.Helper()
	if frame[2] != Version {
		t.Fatalf("kind %d stamped version %d, want %d", frame[3], frame[2], Version)
	}
	if _, err := Decode(frame); err != nil {
		t.Fatalf("kind %d at version %d: %v", frame[3], Version, err)
	}
	for v := uint8(0); v < Version; v++ {
		old := append([]byte(nil), frame...)
		old[2] = v
		if _, err := Decode(old); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("kind %d in version-%d frame: err = %v, want ErrBadVersion", frame[3], v, err)
		}
	}
}

// TestBatchKindRejectedInOldFrames: a batch kind inside a frame of any
// earlier version is rejected, not decoded.
func TestBatchKindRejectedInOldFrames(t *testing.T) {
	m, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 7}, Filter: buildFilter(t)})
	if err != nil {
		t.Fatal(err)
	}
	requireCurrentVersionOnly(t, m.Encode())
	requireCurrentVersionOnly(t, Message{Kind: KindBatchReply, Payload: []byte{1, 2}}.Encode())
}

func TestBatchQueryRoundTrip(t *testing.T) {
	f := buildFilter(t)
	m, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{7, 1}, Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindBatchQuery {
		t.Fatalf("kind = %v", m.Kind)
	}
	got, err := DecodeBatchQuery(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != 2 || got.Queries[0] != 1 || got.Queries[1] != 7 {
		t.Fatalf("queries = %v, want sorted [1 7]", got.Queries)
	}
	if got.Filter.Params() != f.Params() || got.Filter.Length() != f.Length() {
		t.Fatal("filter params/length lost")
	}
	if len(got.Filter.Weights()) != len(f.Weights()) {
		t.Fatal("weight table size changed")
	}
}

func TestBatchQueryEncodeErrors(t *testing.T) {
	f := buildFilter(t)
	if _, err := EncodeBatchQuery(BatchQuery{Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("empty batch: %v", err)
	}
	// The filter encodes queries 1 and 7; declaring only 1 must fail.
	if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1}, Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("undeclared query: %v", err)
	}
	if _, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 1, 7}, Filter: f}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("duplicate query: %v", err)
	}
	big := make([]core.QueryID, MaxBatchQueries+1)
	for i := range big {
		big[i] = core.QueryID(i)
	}
	if _, err := EncodeBatchQuery(BatchQuery{Queries: big, Filter: f}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestBatchQueryDecodeCorrupt drives corrupt and hostile payloads through
// the decoder: every one must fail with a typed error, never panic.
func TestBatchQueryDecodeCorrupt(t *testing.T) {
	f := buildFilter(t)
	good, err := EncodeBatchQuery(BatchQuery{Queries: []core.QueryID{1, 7}, Filter: f})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong kind", func(t *testing.T) {
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchReply}); err == nil {
			t.Fatal("wrong kind accepted")
		}
	})
	t.Run("empty payload", func(t *testing.T) {
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery}); err == nil {
			t.Fatal("empty payload accepted")
		}
	})
	t.Run("oversized count", func(t *testing.T) {
		var w writer
		w.uvarint(MaxBatchQueries + 1)
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("err = %v, want ErrBatchTooLarge", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		var w writer
		w.uvarint(0)
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("err = %v, want ErrBatchMismatch", err)
		}
	})
	t.Run("duplicate id", func(t *testing.T) {
		var w writer
		w.uvarint(2)
		w.uvarint(3) // id 3
		w.uvarint(0) // delta 0: duplicate
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("err = %v, want ErrBatchMismatch", err)
		}
	})
	t.Run("undeclared weight query", func(t *testing.T) {
		// Re-declare only query 1 in front of a filter that encodes 1 and 7.
		var w writer
		w.uvarint(1)
		w.uvarint(1)
		writeFilter(&w, f)
		_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: w.buf})
		if !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("err = %v, want ErrBatchMismatch", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		// Every prefix of a valid payload must fail loudly, not panic.
		for i := 0; i < len(good.Payload); i += 7 {
			if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: good.Payload[:i]}); err == nil {
				t.Fatalf("truncation at %d accepted", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		p := append(append([]byte(nil), good.Payload...), 0xFF)
		if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: p}); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
}

func TestBatchReplyRoundTrip(t *testing.T) {
	in := BatchReply{
		Station: 3,
		Queries: 2,
		Reports: []core.Report{
			{Person: 10, WeightIDs: []core.WeightID{0, 4}},
			{Person: 42, WeightIDs: []core.WeightID{1}},
		},
	}
	m := EncodeBatchReply(in)
	if m.Kind != KindBatchReply {
		t.Fatalf("frame: kind %v", m.Kind)
	}
	got, err := DecodeBatchReply(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != 3 || got.Queries != 2 || len(got.Reports) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Reports[0].Person != 10 || len(got.Reports[0].WeightIDs) != 2 || got.Reports[1].WeightIDs[0] != 1 {
		t.Fatalf("reports %+v", got.Reports)
	}
	if _, err := DecodeBatchReply(Message{Kind: KindAck}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := DecodeBatchReply(Message{Kind: KindBatchReply, Payload: []byte{0x80}}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// workedBatchQuery2 rebuilds the docs/WIRE.md two-query worked frame: query
// 1 with local {1, 2} and query 2 with local {2, 1} in a tiny filter
// (m = 64, k = 2, b = 2, ε = 0, seed 5). Both reach accumulated value 3 at
// the second sample, so the bits that value sets carry both pointers.
func workedBatchQuery2(t testing.TB) BatchQuery {
	t.Helper()
	enc, err := core.NewEncoder(core.Params{Bits: 64, Hashes: 2, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2}}},
		{ID: 2, Locals: []pattern.Pattern{{2, 1}}},
	} {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return BatchQuery{Queries: []core.QueryID{1, 2}, Filter: enc.Filter()}
}

// workedBatchQuery2Lists are the worked frame's pointer lists, slot by slot.
var workedBatchQuery2Lists = [][]uint64{{1}, {0, 1}, {0}, {1}, {0}, {0, 1}}

// workedBatchQuery2WithSlots returns the worked two-query payload with its
// slot block rewritten to carry the given absolute bit indexes (delta
// encoded with wrap-around, as a forged frame would) and the worked
// pointer lists.
func workedBatchQuery2WithSlots(t testing.TB, indexes []uint64) []byte {
	t.Helper()
	slotBlock := func(indexes []uint64) []byte {
		var w writer
		w.uvarint(uint64(len(indexes)))
		prev := uint64(0)
		for i, idx := range indexes {
			w.uvarint(idx - prev)
			prev = idx
			w.uvarint(uint64(len(workedBatchQuery2Lists[i])))
			prevID := uint64(0)
			for _, id := range workedBatchQuery2Lists[i] {
				w.uvarint(id - prevID)
				prevID = id
			}
		}
		return w.buf
	}
	payload := mustHex(t, workedBatchQuery2Hex)[12:]
	genuine := slotBlock([]uint64{6, 24, 26, 41, 45, 53})
	head := len(payload) - len(genuine)
	if head < 0 || string(payload[head:]) != string(genuine) {
		t.Fatal("worked two-query frame does not end in the slot block it documents")
	}
	return append(append([]byte(nil), payload[:head]...), slotBlock(indexes)...)
}

// TestWorkedBatchQueryHex pins the docs/WIRE.md worked KindBatchQuery frames
// to the live encoder, byte for byte, and checks that decoding and
// re-encoding each one gives the same bytes back: the filter's in-memory
// layout is free to change, its wire form is not.
func TestWorkedBatchQueryHex(t *testing.T) {
	one, err := core.NewEncoder(core.Params{Bits: 64, Hashes: 2, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.AddQuery(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		batch BatchQuery
		want  string
	}{
		{"one query", BatchQuery{Queries: []core.QueryID{1}, Filter: one.Filter()}, workedBatchQueryHex},
		{"two queries", workedBatchQuery2(t), workedBatchQuery2Hex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := EncodeBatchQuery(tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(m.WithRequest(42).Encode()); got != tc.want {
				t.Fatalf("worked batch-query frame drifted from docs/WIRE.md:\n got  %s\n want %s", got, tc.want)
			}
			frame, err := Decode(mustHex(t, tc.want))
			if err != nil {
				t.Fatal(err)
			}
			b, err := DecodeBatchQuery(frame)
			if err != nil {
				t.Fatal(err)
			}
			re, err := EncodeBatchQuery(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(re.WithRequest(42).Encode()); got != tc.want {
				t.Fatalf("decode/encode changed the worked frame:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestDecodeRejectsBadSlotIndexes: the i-th slot of a filter block must sit
// on the i-th set bit. A frame whose slot indexes repeat, descend or land
// on an unset bit — with the set-bit and slot counts still equal — is a
// typed error. The duplicate case once decoded into a filter whose set bit
// at 24 had silently lost its pointer list.
func TestDecodeRejectsBadSlotIndexes(t *testing.T) {
	if _, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: workedBatchQuery2WithSlots(t, []uint64{6, 24, 26, 41, 45, 53})}); err != nil {
		t.Fatalf("genuine slot block rejected: %v", err)
	}
	for name, indexes := range map[string][]uint64{
		"duplicate":    {6, 6, 26, 41, 45, 53},
		"out of order": {6, 24, 26, 45, 41, 53},
		"unset bit":    {6, 24, 27, 41, 45, 53},
		"past the end": {6, 24, 26, 41, 45, 64},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeBatchQuery(Message{Kind: KindBatchQuery, Payload: workedBatchQuery2WithSlots(t, indexes)})
			if !errors.Is(err, core.ErrCorruptFilter) {
				t.Fatalf("err = %v, want core.ErrCorruptFilter", err)
			}
		})
	}
}

// TestFilterFrameRoundTripSeeded encodes seeded query batches of 1 to 20
// queries — cycling hash count, ε, tolerance mode and position salting, up
// to the Figure-4 filter size — and requires that decoding a frame and
// encoding the result gives back the original frame byte for byte.
func TestFilterFrameRoundTripSeeded(t *testing.T) {
	const length = 8
	rng := rand.New(rand.NewSource(20120613))
	for batch := 1; batch <= 20; batch++ {
		p := core.Params{
			Bits:           []uint64{64, 256, 1 << 10, 1 << 15}[batch%4],
			Hashes:         1 + batch%7,
			Samples:        1 + rng.Intn(length),
			Epsilon:        int64(batch % 3),
			Tolerance:      core.ToleranceMode(1 + batch%2),
			Seed:           rng.Uint64(),
			PositionSalted: batch/2%2 == 1,
		}
		enc, err := core.NewEncoder(p, length)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]core.QueryID, batch)
		for q := range ids {
			ids[q] = core.QueryID(1 + rng.Intn(1000)*32 + q)
			locals := make([]pattern.Pattern, 1+rng.Intn(3))
			for l := range locals {
				locals[l] = make(pattern.Pattern, length)
				for i := range locals[l] {
					locals[l][i] = rng.Int63n(5)
				}
				locals[l][0]++
			}
			if err := enc.AddQuery(core.Query{ID: ids[q], Locals: locals}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := EncodeBatchQuery(BatchQuery{Queries: ids, Filter: enc.Filter()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecodeBatchQuery(m)
		if err != nil {
			t.Fatalf("batch %d %+v: %v", batch, p, err)
		}
		re, err := EncodeBatchQuery(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Payload, m.Payload) {
			t.Fatalf("batch %d %+v: decode/encode changed the %d-byte frame", batch, p, len(m.Payload))
		}
	}
}
