// Summary-routing benchmark: the recorded fan-out-pruning baseline.
//
// The scenarios measure what the coordinator-side routing index buys on the
// workload it exists for — selective (needle) queries over a replicated
// placement-first deployment, where each queried person's pattern lives on
// only R=2 of the member stations. Every cell runs the same searches twice,
// WithRouting(RoutingFull) versus the default summary routing, over real
// TCP loopback, and the runner asserts the two modes return identical
// results with every target retrieved (recall 1) before a single figure is
// recorded: the saving is only worth reporting if recall provably did not
// move. The headline, validated in CI against BENCH_routing.json: at 16+
// stations a routed single-target search sends a small constant number of
// query exchanges instead of one per station. Broad queries whose matches
// spread over every station admit everywhere and degrade to full fan-out by
// design — docs/OPERATIONS.md discusses when routing pays.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
)

// RoutingConfig parameterizes the routed-vs-full comparison.
type RoutingConfig struct {
	// Seed fixes the placed population and therefore the whole run.
	Seed uint64
	// Persons sizes the placed population (default 600).
	Persons int
	// PatternLength is the placed time series' length (default 12).
	PatternLength int
	// StationCounts is the sweep of cluster sizes (default {4, 16, 64}).
	StationCounts []int
	// QueryCounts is the sweep of queries per search (default {1, 8}).
	QueryCounts []int
	// Replication is the placement factor (default 2 — the ISSUE's R).
	Replication int
	// Repetitions is the number of timed searches per cell after one
	// untimed warm-up (default 6).
	Repetitions int
}

func (c RoutingConfig) withDefaults() RoutingConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Persons == 0 {
		c.Persons = 600
	}
	if c.PatternLength == 0 {
		c.PatternLength = 12
	}
	if len(c.StationCounts) == 0 {
		c.StationCounts = []int{4, 16, 64}
	}
	if len(c.QueryCounts) == 0 {
		c.QueryCounts = []int{1, 8}
	}
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Repetitions == 0 {
		c.Repetitions = 6
	}
	return c
}

// RoutingScenario is one measured cell of the sweep.
type RoutingScenario struct {
	Transport string `json:"transport"`
	Stations  int    `json:"stations"`
	Queries   int    `json:"queries"`
	// Mode is "routed" (default summary routing) or "full"
	// (WithRouting(RoutingFull)).
	Mode          string  `json:"mode"`
	Repetitions   int     `json:"repetitions"`
	Replication   int     `json:"replication"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	// BytesPerQuery / MessagesPerQuery divide one steady-state search's
	// wire totals (both directions, summary refreshes excluded — the warm
	// cache is the steady state) by the query count.
	BytesPerQuery    float64 `json:"bytes_per_query"`
	MessagesPerQuery float64 `json:"messages_per_query"`
	MessagesTotal    uint64  `json:"messages_total"`
	BytesTotal       uint64  `json:"bytes_total"`
	// StationsPruned is the steady-state per-search prune count (0 in full
	// mode by definition).
	StationsPruned int `json:"stations_pruned"`
	// SummaryRefreshBytes is the one-time cache-fill cost the warm-up
	// search paid (both directions); steady-state searches refresh nothing.
	SummaryRefreshBytes uint64 `json:"summary_refresh_bytes"`
	// Recall is the fraction of queried targets retrieved (must be 1).
	Recall float64 `json:"recall"`
	// ResultsMatchFull records that every timed search returned results
	// identical to the full-fan-out reference (trivially true in full
	// mode).
	ResultsMatchFull bool `json:"results_match_full"`
}

// RoutingComparison is the headline at one sweep cell.
type RoutingComparison struct {
	Stations int `json:"stations"`
	Queries  int `json:"queries"`
	// MessagesPerQueryRatio is full / routed messages per query — the
	// fan-out pruning factor.
	MessagesPerQueryRatio float64 `json:"messages_per_query_ratio"`
	// ThroughputRatio is routed / full throughput.
	ThroughputRatio float64 `json:"throughput_ratio"`
	// StationsPruned is the routed cell's steady-state prune count.
	StationsPruned int `json:"stations_pruned"`
}

// RoutingReport is the full run, serialized to BENCH_routing.json.
type RoutingReport struct {
	Schema      string              `json:"schema"`
	GoVersion   string              `json:"go"`
	GOOS        string              `json:"goos"`
	GOARCH      string              `json:"goarch"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Config      RoutingConfig       `json:"config"`
	Scenarios   []RoutingScenario   `json:"scenarios"`
	Comparisons []RoutingComparison `json:"comparisons"`
}

// routingSchema versions the JSON layout for the CI validator.
const routingSchema = "dimatch-routing-bench/v1"

// routingOptions are the search knobs shared by every cell.
func routingOptions(seed uint64) cluster.Options {
	return cluster.Options{
		Params: core.Params{
			Bits:           1 << 18,
			Hashes:         5,
			Samples:        8,
			Epsilon:        1,
			Seed:           seed,
			PositionSalted: true,
		},
		MinScore: 0.9,
	}
}

// routingPopulation builds the deterministic placed population: random
// integer series whose per-interval spread (values up to 1000) is wide
// relative to the ε=1 bands, so a single-target query admits (essentially)
// only the target's replicas. That selectivity is the workload's point — a
// summary has no joint information across positions, so a population whose
// values are dense relative to ε admits everywhere and routing degrades to
// full fan-out by design (docs/OPERATIONS.md covers the sizing intuition).
func routingPopulation(cfg RoutingConfig) map[core.PersonID]pattern.Pattern {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	out := make(map[core.PersonID]pattern.Pattern, cfg.Persons)
	for p := 1; p <= cfg.Persons; p++ {
		pat := make(pattern.Pattern, cfg.PatternLength)
		for i := range pat {
			pat[i] = rng.Int63n(1000)
		}
		pat[0]++ // never all-zero
		out[core.PersonID(p)] = pat
	}
	return out
}

// routingQuerySet builds n single-target queries: the exact patterns of the
// first n placed persons (deterministic target set).
func routingQuerySet(pop map[core.PersonID]pattern.Pattern, n int) ([]core.Query, []core.PersonID) {
	queries := make([]core.Query, n)
	targets := make([]core.PersonID, n)
	for i := 0; i < n; i++ {
		p := core.PersonID(i + 1)
		queries[i] = core.Query{ID: core.QueryID(i + 1), Locals: []pattern.Pattern{pop[p]}}
		targets[i] = p
	}
	return queries, targets
}

// tcpRoutedCluster stands up a loopback-TCP placement-first deployment:
// stationCount empty serving stations, then the whole population placed at
// the configured replication factor.
func tcpRoutedCluster(ctx context.Context, cfg RoutingConfig, pop map[core.PersonID]pattern.Pattern, stationCount int) (*cluster.Cluster, func(), error) {
	ln, err := transport.Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	links := make(map[uint32]transport.Link, stationCount)
	for id := uint32(0); id < uint32(stationCount); id++ {
		stationLink, err := transport.Dial(ln.Addr(), nil, nil)
		if err != nil {
			ln.Close()
			return nil, nil, err
		}
		centerLink, err := ln.Accept()
		if err != nil {
			ln.Close()
			return nil, nil, err
		}
		links[id] = centerLink
		go func(id uint32, link transport.Link) {
			_ = cluster.ServeStation(id, nil, link)
		}(id, stationLink)
	}
	c, err := cluster.NewWithLinks(routingOptions(cfg.Seed), links, cfg.PatternLength, nil, nil)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	cleanup := func() {
		_ = c.Shutdown()
		_ = ln.Close()
	}
	if err := c.Place(ctx, pop, cluster.WithReplication(cfg.Replication)); err != nil {
		cleanup()
		return nil, nil, err
	}
	return c, cleanup, nil
}

// outcomesEqual reports whether two outcomes rank identically per query.
func outcomesEqual(queries []core.Query, a, b *cluster.Outcome) bool {
	for _, q := range queries {
		ra, rb := a.PerQuery[q.ID], b.PerQuery[q.ID]
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].Person != rb[i].Person || ra[i].Numerator != rb[i].Numerator || ra[i].Denominator != rb[i].Denominator {
				return false
			}
		}
	}
	return true
}

// targetRecall returns the fraction of targets present in their query's
// results.
func targetRecall(out *cluster.Outcome, targets []core.PersonID) float64 {
	hit := 0
	for i, target := range targets {
		for _, r := range out.PerQuery[core.QueryID(i+1)] {
			if r.Person == target {
				hit++
				break
			}
		}
	}
	if len(targets) == 0 {
		return 0
	}
	return float64(hit) / float64(len(targets))
}

// runRoutingScenario times one (cluster, queries, mode) cell. reference is
// the full-fan-out outcome the routed mode must reproduce (nil when this
// cell IS the reference).
func runRoutingScenario(ctx context.Context, c *cluster.Cluster, cfg RoutingConfig, queries []core.Query, targets []core.PersonID, mode string, reference *cluster.Outcome) (RoutingScenario, *cluster.Outcome, error) {
	var opts []cluster.SearchOption
	if mode == "full" {
		opts = append(opts, cluster.WithRouting(cluster.RoutingFull))
	}
	// Warm-up: fills the epoch's stats cache, the TCP buffers and —
	// in routed mode — the coordinator's summary cache; its refresh bytes
	// are the recorded one-time cost.
	warm, err := c.Search(ctx, queries, opts...)
	if err != nil {
		return RoutingScenario{}, nil, err
	}
	s := RoutingScenario{
		Transport:           "tcp",
		Stations:            c.Stations(),
		Queries:             len(queries),
		Mode:                mode,
		Repetitions:         cfg.Repetitions,
		Replication:         cfg.Replication,
		SummaryRefreshBytes: warm.Cost.SummaryBytesDown + warm.Cost.SummaryBytesUp,
		ResultsMatchFull:    true,
	}
	durations := make([]time.Duration, 0, cfg.Repetitions)
	var last *cluster.Outcome
	start := time.Now()
	for i := 0; i < cfg.Repetitions; i++ {
		out, err := c.Search(ctx, queries, opts...)
		if err != nil {
			return RoutingScenario{}, nil, err
		}
		if reference != nil && !outcomesEqual(queries, reference, out) {
			return RoutingScenario{}, nil, fmt.Errorf("bench: %d stations, %d queries: routed results diverge from full fan-out", c.Stations(), len(queries))
		}
		durations = append(durations, out.Cost.Elapsed)
		last = out
	}
	total := time.Since(start)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	pct := func(p float64) float64 {
		return float64(durations[int(p*float64(len(durations)-1))].Microseconds())
	}
	msgs := last.Cost.MessagesDown + last.Cost.MessagesUp
	bytes := last.Cost.TotalBytes()
	q := float64(len(queries))
	s.ThroughputQPS = q * float64(cfg.Repetitions) / total.Seconds()
	s.P50Micros = pct(0.50)
	s.P99Micros = pct(0.99)
	s.BytesPerQuery = float64(bytes) / q
	s.MessagesPerQuery = float64(msgs) / q
	s.MessagesTotal = msgs
	s.BytesTotal = bytes
	s.StationsPruned = last.Cost.StationsPruned
	s.Recall = targetRecall(last, targets)
	if s.Recall != 1 {
		return RoutingScenario{}, nil, fmt.Errorf("bench: %d stations, %d queries, %s: recall %.3f, want 1", c.Stations(), len(queries), mode, s.Recall)
	}
	return s, last, nil
}

// RunRoutingBench executes the full sweep and assembles the report.
func RunRoutingBench(ctx context.Context, cfg RoutingConfig) (*RoutingReport, error) {
	cfg = cfg.withDefaults()
	pop := routingPopulation(cfg)
	report := &RoutingReport{
		Schema:     routingSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	for _, stations := range cfg.StationCounts {
		c, cleanup, err := tcpRoutedCluster(ctx, cfg, pop, stations)
		if err != nil {
			return nil, err
		}
		for _, nq := range cfg.QueryCounts {
			queries, targets := routingQuerySet(pop, nq)
			full, fullOut, err := runRoutingScenario(ctx, c, cfg, queries, targets, "full", nil)
			if err != nil {
				cleanup()
				return nil, err
			}
			routed, _, err := runRoutingScenario(ctx, c, cfg, queries, targets, "routed", fullOut)
			if err != nil {
				cleanup()
				return nil, err
			}
			report.Scenarios = append(report.Scenarios, full, routed)
			cmp := RoutingComparison{
				Stations:       stations,
				Queries:        nq,
				StationsPruned: routed.StationsPruned,
			}
			if routed.MessagesPerQuery > 0 {
				cmp.MessagesPerQueryRatio = full.MessagesPerQuery / routed.MessagesPerQuery
			}
			if full.ThroughputQPS > 0 {
				cmp.ThroughputRatio = routed.ThroughputQPS / full.ThroughputQPS
			}
			report.Comparisons = append(report.Comparisons, cmp)
		}
		cleanup()
	}
	return report, nil
}

// WriteRoutingJSON serializes the report, indented for diff-friendly
// commits of the recorded baseline.
func WriteRoutingJSON(w io.Writer, r *RoutingReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CheckRoutingJSON validates a serialized report: parseable, the right
// schema, non-empty, every scenario recall-clean — and the acceptance gate:
// at every cell with 16 or more stations, the routed search moved strictly
// fewer messages per query than full fan-out with results asserted
// identical, and single-target cells pruned by at least 2×. The message
// counts are protocol-determined (the run is seeded, in-process bloom state
// included), so the gate is deterministic across machines, unlike
// throughput. CI runs this against both the freshly generated artifact and
// the committed BENCH_routing.json.
func CheckRoutingJSON(r io.Reader) error {
	var report RoutingReport
	if err := json.NewDecoder(r).Decode(&report); err != nil {
		return fmt.Errorf("bench: malformed routing report: %w", err)
	}
	if report.Schema != routingSchema {
		return fmt.Errorf("bench: schema %q, want %q", report.Schema, routingSchema)
	}
	if len(report.Scenarios) == 0 || len(report.Comparisons) == 0 {
		return fmt.Errorf("bench: routing report is empty")
	}
	for i, s := range report.Scenarios {
		if s.Mode != "routed" && s.Mode != "full" {
			return fmt.Errorf("bench: scenario %d has unknown mode %q", i, s.Mode)
		}
		if s.Repetitions <= 0 || s.ThroughputQPS <= 0 || s.MessagesTotal == 0 || s.BytesTotal == 0 {
			return fmt.Errorf("bench: scenario %d (%d stations, %d queries, %s) has empty measurements", i, s.Stations, s.Queries, s.Mode)
		}
		if s.Recall != 1 {
			return fmt.Errorf("bench: scenario %d (%d stations, %d queries, %s) recall %.3f — routing changed recall", i, s.Stations, s.Queries, s.Mode, s.Recall)
		}
		if !s.ResultsMatchFull {
			return fmt.Errorf("bench: scenario %d (%d stations, %d queries, %s) diverged from full fan-out", i, s.Stations, s.Queries, s.Mode)
		}
		if s.Mode == "full" && s.StationsPruned != 0 {
			return fmt.Errorf("bench: scenario %d: full fan-out claims %d pruned stations", i, s.StationsPruned)
		}
	}
	gated := false
	for _, cmp := range report.Comparisons {
		if cmp.Stations < 16 {
			continue
		}
		gated = true
		if cmp.MessagesPerQueryRatio <= 1 {
			return fmt.Errorf("bench: %d stations x %d queries: messages-per-query ratio %.2f — routing is not pruning fan-out", cmp.Stations, cmp.Queries, cmp.MessagesPerQueryRatio)
		}
		if cmp.Queries == 1 && cmp.MessagesPerQueryRatio < 2 {
			return fmt.Errorf("bench: %d stations single-target ratio %.2f < 2 — summaries barely prune", cmp.Stations, cmp.MessagesPerQueryRatio)
		}
		if cmp.StationsPruned == 0 {
			return fmt.Errorf("bench: %d stations x %d queries: nothing pruned at 16+ stations", cmp.Stations, cmp.Queries)
		}
	}
	if !gated {
		return fmt.Errorf("bench: no cell with >= 16 stations — nothing validates the pruning claim")
	}
	return nil
}

// RenderRouting prints the report as an aligned text table plus the
// headline ratios.
func RenderRouting(w io.Writer, r *RoutingReport) {
	fmt.Fprintf(w, "Summary routing baseline (%s, %s/%s, GOMAXPROCS=%d, R=%d, %d persons placed)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS, r.Config.Replication, r.Config.Persons)
	fmt.Fprintf(w, "%9s %8s %8s %14s %10s %12s %10s %8s %10s\n",
		"stations", "queries", "mode", "thruput q/s", "p50 µs", "bytes/query", "msgs/query", "pruned", "recall")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "%9d %8d %8s %14.1f %10.0f %12.0f %10.2f %8d %10.3f\n",
			s.Stations, s.Queries, s.Mode, s.ThroughputQPS, s.P50Micros, s.BytesPerQuery, s.MessagesPerQuery, s.StationsPruned, s.Recall)
	}
	for _, cmp := range r.Comparisons {
		fmt.Fprintf(w, "routed vs full at %d queries x %d stations: %.1fx fewer messages/query (%d stations pruned), %.2fx throughput\n",
			cmp.Queries, cmp.Stations, cmp.MessagesPerQueryRatio, cmp.StationsPruned, cmp.ThroughputRatio)
	}
}
