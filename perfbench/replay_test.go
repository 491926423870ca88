package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// smallSizes run every workload's code path in well under a second each.
var smallSizes = sizes{
	cityPersons: 800, cityStations: 16, cityCities: 2, cityBatches: 1,
	needlePersons: 2000, needleStations: 32, needlePool: 8,
	ingestPersons: 4000, ingestStations: 4, ingestHot: 800, ingestPool: 8, ingestBatch: 100,
}

// setupSmall sets a workload up at small sizes and computes its references.
func setupSmall(t *testing.T, wl workload) *instance {
	t.Helper()
	ctx := context.Background()
	in, err := wl.setup(ctx, 7, t.TempDir(), smallSizes)
	if err != nil {
		t.Fatalf("%s: set-up: %v", wl.name, err)
	}
	t.Cleanup(in.close)
	if err := in.prepare(ctx); err != nil {
		t.Fatalf("%s: references: %v", wl.name, err)
	}
	return in
}

// TestReplayEquivalence runs each workload briefly, checks every answer,
// and replays the window layer by layer: the replay must reproduce every
// search's results and CostReport counts, and yield the layer metrics.
func TestReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			in := setupSmall(t, wl)
			w, err := in.measure(ctx, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if w.failed != 0 || w.searches == 0 {
				t.Fatalf("window: %d searches, %d of %d operations failed: %v", w.searches, w.failed, w.attempted, w.errs)
			}
			if got := ratio(float64(w.found), float64(w.expected)); in.deps[0].placed && got != 1 {
				t.Fatalf("recall %v, want 1", got)
			}
			tr := newTracer()
			m, err := traceRun(ctx, in, w, tr, 300*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"core.station_match.self_ms", "wire.query_decode.self_ms", "transport.transit.self_ms", "index.plan.stations_visited"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name].Value)
				}
			}
			if in.feed != nil {
				for _, name := range []string{"wal.append.self_ms", "stream.flush.self_ms", "placement.hrw.self_ms", "wire.ingest_bytes_per_pattern"} {
					if m[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, m[name].Value)
					}
				}
			}
		})
	}
}

// TestReplayDetectsDivergence drops one resident from the replay's copy of
// a station: the replayed searches must no longer match the cluster's, and
// the traced run must refuse to report.
func TestReplayDetectsDivergence(t *testing.T) {
	ctx := context.Background()
	in := setupSmall(t, workloads[1]) // placed-needle: one target per search
	w, err := in.measure(ctx, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplay(in, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.close()
	r := rp.rs[in.deps[0]]
	target := in.pool[w.ops[0]].target
	for sid, persons := range r.persons {
		for i, p := range persons {
			if p == target {
				r.persons[sid] = append(persons[:i:i], persons[i+1:]...)
				r.locals[sid] = append(r.locals[sid][:i:i], r.locals[sid][i+1:]...)
				break
			}
		}
	}
	err = rp.replaySearches(ctx, in.pool, w.ops[:1], time.Second)
	if !errors.Is(err, errNotEquivalent) {
		t.Fatalf("replay over a corrupted station: err = %v, want errNotEquivalent", err)
	}
}
