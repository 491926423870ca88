package cluster

import (
	"context"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

func batchTestCluster(t *testing.T) *Cluster {
	t.Helper()
	data := map[uint32]map[core.PersonID]pattern.Pattern{
		0: {10: {1, 2, 3}, 11: {3, 4, 5}},
		1: {10: {2, 2, 2}, 12: {9, 9, 9}},
		2: {13: {5, 0, 5}, 14: {1, 1, 1}},
	}
	c, err := New(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

func batchTestQueries() []core.Query {
	return []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []pattern.Pattern{{3, 4, 5}}},
		{ID: 3, Locals: []pattern.Pattern{{9, 9, 9}}},
		{ID: 4, Locals: []pattern.Pattern{{5, 0, 5}}},
		{ID: 5, Locals: []pattern.Pattern{{1, 1, 1}}},
	}
}

// TestBatchedMatchesLegacyResults pins the central equivalence: every batch
// size — all-in-one, split rounds, and the fully legacy per-query path —
// must return identical ranked answers.
func TestBatchedMatchesLegacyResults(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries()
	ctx := context.Background()

	want, err := c.Search(ctx, queries) // default: one batched round
	if err != nil {
		t.Fatal(err)
	}
	if want.Cost.Batches != 1 {
		t.Fatalf("default search Batches = %d, want 1", want.Cost.Batches)
	}
	for _, q := range queries {
		if len(want.PerQuery[q.ID]) == 0 {
			t.Fatalf("query %d matched nothing; test data broken", q.ID)
		}
	}

	for _, n := range []int{1, 2, 3, 100} {
		got, err := c.Search(ctx, queries, WithBatching(n))
		if err != nil {
			t.Fatalf("batch size %d: %v", n, err)
		}
		for _, q := range queries {
			w, g := want.PerQuery[q.ID], got.PerQuery[q.ID]
			if len(w) != len(g) {
				t.Fatalf("batch size %d query %d: %d results, want %d", n, q.ID, len(g), len(w))
			}
			for i := range w {
				if w[i].Person != g[i].Person || w[i].Numerator != g[i].Numerator || w[i].Denominator != g[i].Denominator {
					t.Fatalf("batch size %d query %d result %d: %+v, want %+v", n, q.ID, i, g[i], w[i])
				}
			}
		}
	}
}

// TestBatchingCostAccounting pins the messages-per-query contract that the
// batch pipeline exists for.
func TestBatchingCostAccounting(t *testing.T) {
	c := batchTestCluster(t)
	queries := batchTestQueries() // 5 queries over 3 stations
	ctx := context.Background()

	tests := []struct {
		name        string
		opts        []SearchOption
		wantDown    uint64
		wantBatches int
	}{
		{name: "default one round", opts: nil, wantDown: 3, wantBatches: 1},
		{name: "rounds of two", opts: []SearchOption{WithBatching(2)}, wantDown: 9, wantBatches: 3},
		{name: "legacy per-query", opts: []SearchOption{WithBatching(1)}, wantDown: 15, wantBatches: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := c.Search(ctx, queries, tt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost.MessagesDown != tt.wantDown {
				t.Fatalf("MessagesDown = %d, want %d", out.Cost.MessagesDown, tt.wantDown)
			}
			if out.Cost.MessagesUp != tt.wantDown {
				t.Fatalf("MessagesUp = %d, want %d (one reply per request)", out.Cost.MessagesUp, tt.wantDown)
			}
			if out.Cost.Batches != tt.wantBatches {
				t.Fatalf("Batches = %d, want %d", out.Cost.Batches, tt.wantBatches)
			}
			if out.Cost.FilterBytes == 0 || out.Cost.TotalBytes() == 0 {
				t.Fatal("cost tallies empty")
			}
		})
	}
}

// TestDesyncedBatchReplyIsTypedError: a station echoing the wrong query
// count fails the search with a descriptive error, not a panic.
func TestDesyncedBatchReplyIsTypedError(t *testing.T) {
	center, stationEnd := transport.Pipe(nil, nil)
	go func() {
		for {
			msg, err := stationEnd.Recv()
			if err != nil {
				return
			}
			var reply wire.Message
			switch msg.Kind {
			case wire.KindStats:
				reply = wire.EncodeStatsReply(wire.StatsReply{Station: 1, Length: 3})
			case wire.KindBatchQuery:
				reply = wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 99})
			case wire.KindShutdown:
				return
			default:
				return
			}
			if err := stationEnd.Send(reply.WithRequest(msg.Request)); err != nil {
				return
			}
		}
	}()
	c, err := NewWithLinks(Options{}, map[uint32]transport.Link{1: center}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	_, err = c.Search(context.Background(), []core.Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}})
	if err == nil {
		t.Fatal("desynced batch reply accepted")
	}
}

// TestBatchQueriesClampsToWireLimit: a search larger than one frame's
// query limit splits into multiple rounds instead of failing to encode.
func TestBatchQueriesClampsToWireLimit(t *testing.T) {
	queries := make([]core.Query, wire.MaxBatchQueries+5)
	rounds := batchQueries(queries, 0)
	if len(rounds) != 2 || len(rounds[0]) != wire.MaxBatchQueries || len(rounds[1]) != 5 {
		t.Fatalf("rounds %d/%v, want [MaxBatchQueries, 5]", len(rounds), []int{len(rounds[0])})
	}
	if rounds := batchQueries(queries, wire.MaxBatchQueries*3); len(rounds) != 2 {
		t.Fatalf("oversized explicit bound not clamped: %d rounds", len(rounds))
	}
	if rounds := batchQueries(queries[:10], 0); len(rounds) != 1 || len(rounds[0]) != 10 {
		t.Fatalf("small set split needlessly: %d rounds", len(rounds))
	}
	if rounds := batchQueries(queries[:10], 3); len(rounds) != 4 {
		t.Fatalf("explicit bound ignored: %d rounds", len(rounds))
	}
}
