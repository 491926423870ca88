package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestHierarchyBenchDeterministic runs a small flat-vs-two-tier sweep twice:
// the probe, prune and state columns depend only on the seed and the
// protocol, so both runs must agree on every scenario. The sweep stays
// below the 1024-station gate, so CheckHierarchyJSON must reject it for
// that reason and no other.
func TestHierarchyBenchDeterministic(t *testing.T) {
	cfg := HierarchyConfig{StationCounts: []int{16, 64}, ResidentsPerStation: 8, Repetitions: 1}
	ctx := context.Background()
	first, err := RunHierarchyBench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunHierarchyBench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Scenarios) != 6 || len(second.Scenarios) != len(first.Scenarios) {
		t.Fatalf("scenario counts %d and %d, want 6 (three per station count)", len(first.Scenarios), len(second.Scenarios))
	}
	for i, a := range first.Scenarios {
		b := second.Scenarios[i]
		if a.ProbesPerQuery != b.ProbesPerQuery || a.StationsPruned != b.StationsPruned || a.MaxCoordinatorStateBytes != b.MaxCoordinatorStateBytes {
			t.Fatalf("scenario %d (%s/%s, %d stations) differs between runs: %+v vs %+v", i, a.Topology, a.Mode, a.Stations, a, b)
		}
		if a.Topology == "hier" && a.Mode != "summary" {
			t.Fatalf("hier arm ran under %q, want summary", a.Mode)
		}
	}

	var buf bytes.Buffer
	if err := WriteHierarchyJSON(&buf, first); err != nil {
		t.Fatal(err)
	}
	err = CheckHierarchyJSON(&buf)
	if err == nil || !strings.Contains(err.Error(), "1024-station gate never ran") {
		t.Fatalf("small sweep: CheckHierarchyJSON = %v, want only the 1024-station gate to fail", err)
	}
}

// syntheticHierarchyReport is a report shaped like the recorded baseline
// that passes every gate of CheckHierarchyJSON.
func syntheticHierarchyReport() *HierarchyReport {
	r := &HierarchyReport{Schema: hierarchySchema}
	for _, n := range []int{512, 1024} {
		r.Scenarios = append(r.Scenarios,
			HierarchyScenario{Topology: "flat", Mode: "full", Stations: n, Regions: 1, TierHops: 1, Recall: 1, ResultsMatchFull: true},
			HierarchyScenario{Topology: "flat", Mode: "summary", Stations: n, Regions: 1, TierHops: 1, ProbesPerQuery: float64(n), Recall: 1, ResultsMatchFull: true},
			HierarchyScenario{Topology: "hier", Mode: "summary", Stations: n, Regions: 32, TierHops: 2, ProbesPerQuery: 0.15 * float64(n), Recall: 1, ResultsMatchFull: true},
		)
		r.Comparisons = append(r.Comparisons, HierarchyComparison{
			Stations:           n,
			Regions:            32,
			FlatProbesPerQuery: float64(n),
			HierProbesPerQuery: 0.15 * float64(n),
			HierProbeFraction:  0.15,
			FlatStateBytes:     uint64(n) * 512,
			HierMaxStateBytes:  16384,
		})
	}
	return r
}

// TestCheckHierarchyJSONGates feeds the validator one valid synthetic report
// and one report per gate that must fail it.
func TestCheckHierarchyJSONGates(t *testing.T) {
	check := func(r *HierarchyReport) error {
		var buf bytes.Buffer
		if err := WriteHierarchyJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		return CheckHierarchyJSON(&buf)
	}
	if err := check(syntheticHierarchyReport()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	cases := map[string]func(r *HierarchyReport){
		"0.3·N hier probes at 1024": func(r *HierarchyReport) {
			c := &r.Comparisons[1]
			c.HierProbesPerQuery = 0.3 * float64(c.Stations)
			c.HierProbeFraction = 0.3
		},
		"largest cell 512": func(r *HierarchyReport) {
			r.Comparisons = r.Comparisons[:1]
		},
		"hier state not below flat": func(r *HierarchyReport) {
			r.Comparisons[1].HierMaxStateBytes = r.Comparisons[1].FlatStateBytes
		},
	}
	for name, mutate := range cases {
		r := syntheticHierarchyReport()
		mutate(r)
		if err := check(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
