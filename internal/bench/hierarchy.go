// Hierarchy benchmark: the recorded multi-tier routing baseline.
//
// The sweep stands the same station population up twice at each size — once
// flat (one coordinator over every in-process station) and once as a two-tier
// hierarchy (a root over ~sqrt(N) region coordinators, each fronting its
// share of the stations via ServeRegion) — and measures what the tier split
// buys under the same summary routing: planning cost in digest probes per
// query and per-coordinator routing-state bytes, both of which must scale
// sublinearly in N, where the flat summary scan is linear by construction.
// Every cell asserts recall 1.0 and results identical to the flat full
// fan-out before a single figure is recorded — the hierarchy is only worth
// measuring because it provably changes nothing but cost. The headline,
// validated in CI against BENCH_hierarchy.json: at 1024 stations the
// hierarchical search evaluates at most 0.25·N digest probes per query and
// no coordinator holds as much routing state as the flat coordinator does.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
)

// HierarchyConfig parameterizes the flat-vs-hierarchy comparison.
type HierarchyConfig struct {
	// Seed fixes the population and therefore the whole run.
	Seed uint64
	// StationCounts is the sweep of station totals (default {256, 512,
	// 1024} — the recorded baseline's sizes).
	StationCounts []int
	// ResidentsPerStation sizes each station's store (default 32).
	ResidentsPerStation int
	// PatternLength is the time-series length (default 8).
	PatternLength int
	// Queries is the number of single-target queries per search (default 4,
	// targets spread across regions).
	Queries int
	// Repetitions is the number of measured searches per cell after one
	// untimed warm-up (default 3).
	Repetitions int
}

func (c HierarchyConfig) withDefaults() HierarchyConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.StationCounts) == 0 {
		c.StationCounts = []int{256, 512, 1024}
	}
	if c.ResidentsPerStation == 0 {
		c.ResidentsPerStation = 32
	}
	if c.PatternLength == 0 {
		c.PatternLength = 8
	}
	if c.Queries == 0 {
		c.Queries = 4
	}
	if c.Repetitions == 0 {
		c.Repetitions = 3
	}
	return c
}

// HierarchyScenario is one measured cell.
type HierarchyScenario struct {
	// Topology is "flat" or "hier"; Mode is the routing mode the search ran
	// under ("full" or "summary" — hier cells always delegate, the mode
	// steers both the root's region pruning and each region's internal
	// planning).
	Topology string `json:"topology"`
	Mode     string `json:"mode"`
	Stations int    `json:"stations"`
	// Regions is the middle-tier coordinator count (1 for flat).
	Regions     int `json:"regions"`
	Queries     int `json:"queries"`
	Repetitions int `json:"repetitions"`
	// ProbesPerQuery is the steady-state planning cost: digest-membership
	// evaluations (CostReport.SubtreeProbes, summed across tiers) divided by
	// the query count.
	ProbesPerQuery float64 `json:"probes_per_query"`
	// MaxCoordinatorStateBytes is the largest routing-state footprint any
	// single coordinator holds (its cached station digests): the flat
	// coordinator's, or the max over root and regions.
	MaxCoordinatorStateBytes uint64 `json:"max_coordinator_state_bytes"`
	// StationsPruned counts fan-out targets the plan skipped (regions count
	// once at the root plus their internal station prunes).
	StationsPruned int `json:"stations_pruned"`
	// TierHops is the coordinator depth (1 flat, 2 hierarchical).
	TierHops int `json:"tier_hops"`
	// MessagesPerQuery is the steady-state query fan-out traffic per query
	// (summary refreshes excluded, as in the routing baseline).
	MessagesPerQuery float64 `json:"messages_per_query"`
	P50Micros        float64 `json:"p50_us"`
	// Recall is the fraction of queried targets retrieved (must be 1).
	Recall float64 `json:"recall"`
	// ResultsMatchFull records that every measured search returned results
	// identical to the flat full-fan-out reference.
	ResultsMatchFull bool `json:"results_match_full"`
}

// HierarchyComparison is the headline at one station count.
type HierarchyComparison struct {
	Stations int `json:"stations"`
	Regions  int `json:"regions"`
	// FlatProbesPerQuery is the flat summary scan's planning cost (linear in
	// N by construction); HierProbesPerQuery the two-tier total.
	FlatProbesPerQuery float64 `json:"flat_probes_per_query"`
	HierProbesPerQuery float64 `json:"hier_probes_per_query"`
	// HierProbeFraction is HierProbesPerQuery / stations — the acceptance
	// gate holds it at or under 0.25 at 1024 stations.
	HierProbeFraction float64 `json:"hier_probe_fraction"`
	// FlatStateBytes is the flat coordinator's routing-state footprint;
	// HierMaxStateBytes the largest any hierarchical coordinator holds.
	FlatStateBytes    uint64 `json:"flat_state_bytes"`
	HierMaxStateBytes uint64 `json:"hier_max_state_bytes"`
}

// HierarchyReport is the full run, serialized to BENCH_hierarchy.json.
type HierarchyReport struct {
	Schema      string                `json:"schema"`
	GoVersion   string                `json:"go"`
	GOOS        string                `json:"goos"`
	GOARCH      string                `json:"goarch"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Config      HierarchyConfig       `json:"config"`
	Scenarios   []HierarchyScenario   `json:"scenarios"`
	Comparisons []HierarchyComparison `json:"comparisons"`
}

// hierarchySchema versions the JSON layout for the CI validator.
const hierarchySchema = "dimatch-hierarchy-bench/v1"

// hierarchyOptions are the search knobs shared by every coordinator at every
// tier. Params are pinned (not auto-sized) so the root's RouteQuery ships the
// exact values every region uses — one less moving part when asserting
// byte-equal results across topologies.
func hierarchyOptions(cfg HierarchyConfig) cluster.Options {
	return cluster.Options{
		Params: core.Params{
			Bits:           1 << 18,
			Hashes:         5,
			Samples:        8,
			Epsilon:        1,
			Seed:           cfg.Seed,
			PositionSalted: true,
		},
		MinScore: 0.9,
	}
}

// hierarchyPopulation deals ResidentsPerStation wide-spread random patterns
// to every station id in [0, stations). Values up to 1e6 against ε=1 bands
// keep single-target probes selective at every tier — the workload routing
// exists for (docs/OPERATIONS.md covers the sizing intuition).
func hierarchyPopulation(cfg HierarchyConfig, stations int) map[uint32]map[core.PersonID]pattern.Pattern {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	data := make(map[uint32]map[core.PersonID]pattern.Pattern, stations)
	next := core.PersonID(1)
	for s := uint32(0); s < uint32(stations); s++ {
		st := make(map[core.PersonID]pattern.Pattern, cfg.ResidentsPerStation)
		for r := 0; r < cfg.ResidentsPerStation; r++ {
			pat := make(pattern.Pattern, cfg.PatternLength)
			for i := range pat {
				pat[i] = rng.Int63n(1_000_000)
			}
			pat[0]++ // never all-zero
			st[next] = pat
			next++
		}
		data[s] = st
	}
	return data
}

// hierarchyQuerySet builds cfg.Queries single-target queries whose targets
// are spread evenly across the station range (and therefore across regions).
func hierarchyQuerySet(cfg HierarchyConfig, data map[uint32]map[core.PersonID]pattern.Pattern, stations int) ([]core.Query, []core.PersonID) {
	queries := make([]core.Query, 0, cfg.Queries)
	targets := make([]core.PersonID, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		station := uint32(i * stations / cfg.Queries)
		// First person dealt to that station: ids are dealt densely in
		// station order.
		p := core.PersonID(int(station)*cfg.ResidentsPerStation + 1)
		queries = append(queries, core.Query{ID: core.QueryID(i + 1), Locals: []pattern.Pattern{data[station][p]}})
		targets = append(targets, p)
	}
	return queries, targets
}

// hierCluster is one stood-up topology: the coordinator to search, and every
// coordinator whose routing state the cell reports.
type hierCluster struct {
	search  *cluster.Cluster
	coords  []*cluster.Cluster
	regions int
	cleanup func()
}

// flatHierCluster builds the flat reference: one coordinator over every
// station, in-process.
func flatHierCluster(cfg HierarchyConfig, data map[uint32]map[core.PersonID]pattern.Pattern) (*hierCluster, error) {
	c, err := cluster.New(hierarchyOptions(cfg), data)
	if err != nil {
		return nil, err
	}
	c.Start()
	return &hierCluster{
		search:  c,
		coords:  []*cluster.Cluster{c},
		regions: 1,
		cleanup: func() { _ = c.Shutdown() },
	}, nil
}

// twoTierCluster splits the stations over floor(sqrt(N)) region coordinators
// (each an in-process sub-cluster served via ServeRegion over a pipe) and
// builds the root over the region links.
func twoTierCluster(cfg HierarchyConfig, data map[uint32]map[core.PersonID]pattern.Pattern, stations int) (*hierCluster, error) {
	regions := int(math.Sqrt(float64(stations)))
	if regions < 1 {
		regions = 1
	}
	per := (stations + regions - 1) / regions
	links := make(map[uint32]transport.Link, regions)
	var subs []*cluster.Cluster
	fail := func(err error) (*hierCluster, error) {
		for _, s := range subs {
			_ = s.Shutdown()
		}
		return nil, err
	}
	for r := 0; r < regions; r++ {
		sub := make(map[uint32]map[core.PersonID]pattern.Pattern, per)
		for s := r * per; s < (r+1)*per && s < stations; s++ {
			sub[uint32(s)] = data[uint32(s)]
		}
		if len(sub) == 0 {
			continue
		}
		rc, err := cluster.New(hierarchyOptions(cfg), sub)
		if err != nil {
			return fail(err)
		}
		rc.Start()
		subs = append(subs, rc)
		regionID := uint32(1_000_000 + r)
		rootEnd, regionEnd := transport.Pipe(nil, nil)
		go func(id uint32, rc *cluster.Cluster, link transport.Link) {
			_ = cluster.ServeRegion(id, rc, link)
		}(regionID, rc, regionEnd)
		links[regionID] = rootEnd
	}
	root, err := cluster.NewWithLinks(hierarchyOptions(cfg), links, cfg.PatternLength, nil, nil)
	if err != nil {
		return fail(err)
	}
	coords := append([]*cluster.Cluster{root}, subs...)
	return &hierCluster{
		search:  root,
		coords:  coords,
		regions: len(subs),
		cleanup: func() {
			_ = root.Shutdown()
			for _, s := range subs {
				_ = s.Shutdown()
			}
		},
	}, nil
}

// maxCoordinatorState returns the largest routing-state footprint across the
// topology's coordinators.
func (h *hierCluster) maxCoordinatorState() uint64 {
	var max uint64
	for _, c := range h.coords {
		if b := c.RoutingState().CachedDigestBytes; b > max {
			max = b
		}
	}
	return max
}

// runHierarchyScenario measures one (topology, mode) cell. reference is the
// flat full-fan-out outcome every other cell must reproduce (nil when this
// cell IS the reference).
func runHierarchyScenario(ctx context.Context, h *hierCluster, cfg HierarchyConfig, topology string, mode cluster.RoutingMode, queries []core.Query, targets []core.PersonID, reference *cluster.Outcome) (HierarchyScenario, *cluster.Outcome, error) {
	opts := []cluster.SearchOption{cluster.WithRouting(mode)}
	// Warm-up fills stats caches and — for routed modes — every
	// tier's digest cache, so the measured repetitions are steady state.
	if _, err := h.search.Search(ctx, queries, opts...); err != nil {
		return HierarchyScenario{}, nil, err
	}
	s := HierarchyScenario{
		Topology:         topology,
		Mode:             mode.String(),
		Stations:         0,
		Regions:          h.regions,
		Queries:          len(queries),
		Repetitions:      cfg.Repetitions,
		ResultsMatchFull: true,
	}
	durations := make([]time.Duration, 0, cfg.Repetitions)
	var last *cluster.Outcome
	for i := 0; i < cfg.Repetitions; i++ {
		out, err := h.search.Search(ctx, queries, opts...)
		if err != nil {
			return HierarchyScenario{}, nil, err
		}
		if reference != nil && !outcomesEqual(queries, reference, out) {
			return HierarchyScenario{}, nil, fmt.Errorf("bench: %s/%s: results diverge from flat full fan-out", topology, mode)
		}
		durations = append(durations, out.Cost.Elapsed)
		last = out
	}
	q := float64(len(queries))
	s.ProbesPerQuery = float64(last.Cost.SubtreeProbes) / q
	s.MaxCoordinatorStateBytes = h.maxCoordinatorState()
	s.StationsPruned = last.Cost.StationsPruned
	s.TierHops = last.Cost.TierHops
	s.MessagesPerQuery = float64(last.Cost.MessagesDown+last.Cost.MessagesUp) / q
	for i := 1; i < len(durations); i++ { // insertion sort: tiny slice
		for j := i; j > 0 && durations[j] < durations[j-1]; j-- {
			durations[j], durations[j-1] = durations[j-1], durations[j]
		}
	}
	s.P50Micros = float64(durations[len(durations)/2].Microseconds())
	s.Recall = targetRecall(last, targets)
	if s.Recall != 1 {
		return HierarchyScenario{}, nil, fmt.Errorf("bench: %s/%s: recall %.3f, want 1", topology, mode, s.Recall)
	}
	return s, last, nil
}

// RunHierarchyBench executes the full sweep and assembles the report.
func RunHierarchyBench(ctx context.Context, cfg HierarchyConfig) (*HierarchyReport, error) {
	cfg = cfg.withDefaults()
	report := &HierarchyReport{
		Schema:     hierarchySchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	for _, stations := range cfg.StationCounts {
		data := hierarchyPopulation(cfg, stations)
		queries, targets := hierarchyQuerySet(cfg, data, stations)

		flat, err := flatHierCluster(cfg, data)
		if err != nil {
			return nil, err
		}
		full, reference, err := runHierarchyScenario(ctx, flat, cfg, "flat", cluster.RoutingFull, queries, targets, nil)
		if err != nil {
			flat.cleanup()
			return nil, err
		}
		summary, _, err := runHierarchyScenario(ctx, flat, cfg, "flat", cluster.RoutingSummary, queries, targets, reference)
		if err != nil {
			flat.cleanup()
			return nil, err
		}
		flatState := flat.maxCoordinatorState()
		flat.cleanup()

		hier, err := twoTierCluster(cfg, data, stations)
		if err != nil {
			return nil, err
		}
		routed, _, err := runHierarchyScenario(ctx, hier, cfg, "hier", cluster.RoutingSummary, queries, targets, reference)
		if err != nil {
			hier.cleanup()
			return nil, err
		}
		hierState := hier.maxCoordinatorState()
		regions := hier.regions
		hier.cleanup()

		full.Stations, summary.Stations, routed.Stations = stations, stations, stations
		report.Scenarios = append(report.Scenarios, full, summary, routed)
		report.Comparisons = append(report.Comparisons, HierarchyComparison{
			Stations:           stations,
			Regions:            regions,
			FlatProbesPerQuery: summary.ProbesPerQuery,
			HierProbesPerQuery: routed.ProbesPerQuery,
			HierProbeFraction:  routed.ProbesPerQuery / float64(stations),
			FlatStateBytes:     flatState,
			HierMaxStateBytes:  hierState,
		})
	}
	return report, nil
}

// WriteHierarchyJSON serializes the report, indented for diff-friendly
// commits of the recorded baseline.
func WriteHierarchyJSON(w io.Writer, r *HierarchyReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CheckHierarchyJSON validates a serialized report: parseable, the right
// schema, non-empty, every scenario recall-clean and result-equal to the
// flat full fan-out — and the acceptance gates at the largest cell, which
// must cover at least 1024 stations: the hierarchical search evaluates at
// most 0.25·N digest probes per query, no hierarchical coordinator holds as
// much routing state as the flat coordinator, and the search really crossed
// two tiers. The probe counts are protocol-determined (the run is seeded),
// so the gates are deterministic across machines, unlike latency. CI runs
// this against both the freshly generated artifact and the committed
// BENCH_hierarchy.json.
func CheckHierarchyJSON(r io.Reader) error {
	var report HierarchyReport
	if err := json.NewDecoder(r).Decode(&report); err != nil {
		return fmt.Errorf("bench: malformed hierarchy report: %w", err)
	}
	if report.Schema != hierarchySchema {
		return fmt.Errorf("bench: schema %q, want %q", report.Schema, hierarchySchema)
	}
	if len(report.Scenarios) == 0 || len(report.Comparisons) == 0 {
		return fmt.Errorf("bench: hierarchy report is empty")
	}
	for i, s := range report.Scenarios {
		if s.Topology != "flat" && s.Topology != "hier" {
			return fmt.Errorf("bench: scenario %d has unknown topology %q", i, s.Topology)
		}
		if s.Recall != 1 {
			return fmt.Errorf("bench: scenario %d (%s/%s, %d stations) recall %.3f — hierarchy changed recall", i, s.Topology, s.Mode, s.Stations, s.Recall)
		}
		if !s.ResultsMatchFull {
			return fmt.Errorf("bench: scenario %d (%s/%s, %d stations) diverged from flat full fan-out", i, s.Topology, s.Mode, s.Stations)
		}
		if s.Topology == "hier" && s.TierHops != 2 {
			return fmt.Errorf("bench: scenario %d: hierarchical search crossed %d tiers, want 2", i, s.TierHops)
		}
		if s.Topology == "flat" && s.Mode != "full" && s.ProbesPerQuery == 0 {
			return fmt.Errorf("bench: scenario %d (%s/%s) planned without probing any digest", i, s.Topology, s.Mode)
		}
	}
	largest := 0
	for _, cmp := range report.Comparisons {
		if cmp.Stations > largest {
			largest = cmp.Stations
		}
	}
	if largest < 1024 {
		return fmt.Errorf("bench: largest cell is %d stations — the 1024-station gate never ran", largest)
	}
	for _, cmp := range report.Comparisons {
		if cmp.HierMaxStateBytes >= cmp.FlatStateBytes {
			return fmt.Errorf("bench: %d stations: hierarchical coordinator state %d B >= flat %d B — the tier split buys no state reduction", cmp.Stations, cmp.HierMaxStateBytes, cmp.FlatStateBytes)
		}
		if cmp.Stations != largest {
			continue
		}
		if cmp.HierProbeFraction > 0.25 {
			return fmt.Errorf("bench: %d stations: %.1f probes per query (fraction %.3f > 0.25) — hierarchical planning is not sublinear", cmp.Stations, cmp.HierProbesPerQuery, cmp.HierProbeFraction)
		}
		if cmp.FlatProbesPerQuery > 0 && cmp.HierProbesPerQuery >= cmp.FlatProbesPerQuery {
			return fmt.Errorf("bench: %d stations: hierarchy probes %.1f >= flat scan %.1f", cmp.Stations, cmp.HierProbesPerQuery, cmp.FlatProbesPerQuery)
		}
	}
	return nil
}

// RenderHierarchy prints the report as an aligned text table plus the
// headline scaling lines.
func RenderHierarchy(w io.Writer, r *HierarchyReport) {
	fmt.Fprintf(w, "Hierarchical routing baseline (%s, %s/%s, GOMAXPROCS=%d, %d residents/station)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS, r.Config.ResidentsPerStation)
	fmt.Fprintf(w, "%9s %6s %9s %8s %13s %12s %8s %6s %10s %8s\n",
		"stations", "topo", "mode", "regions", "probes/query", "state bytes", "pruned", "hops", "msgs/query", "p50 µs")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "%9d %6s %9s %8d %13.1f %12d %8d %6d %10.2f %8.0f\n",
			s.Stations, s.Topology, s.Mode, s.Regions, s.ProbesPerQuery, s.MaxCoordinatorStateBytes, s.StationsPruned, s.TierHops, s.MessagesPerQuery, s.P50Micros)
	}
	for _, cmp := range r.Comparisons {
		fmt.Fprintf(w, "at %d stations (%d regions): hier %.1f probes/query (%.3f of N) vs flat scan %.1f; max coordinator state %d B vs flat %d B\n",
			cmp.Stations, cmp.Regions, cmp.HierProbesPerQuery, cmp.HierProbeFraction, cmp.FlatProbesPerQuery, cmp.HierMaxStateBytes, cmp.FlatStateBytes)
	}
}
