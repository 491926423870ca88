// Batch pipeline benchmark: the recorded perf baseline for the repository.
//
// The scenarios compare the batched search pipeline (all queries of a
// search packed into one KindBatchQuery exchange per station, matched in a
// single pooled walk over each station's residents) against unbatched
// rounds of one query each (WithBatching(1): one filter and one
// KindBatchQuery frame per query per station) over a
// real TCP loopback deployment — the same transport a distributed
// deployment uses, so framing, syscalls and round trips are all real.
// RunBatchBench emits a typed report that WriteBatchBenchJSON serializes as
// BENCH_batch.json; CI regenerates and validates the file on every push so
// a regression in the batch path fails loudly. Methodology details live in
// ARCHITECTURE.md §Benchmark methodology.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"dimatch/internal/cdr"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/transport"
)

// BatchBenchConfig parameterizes the batched-vs-unbatched comparison.
type BatchBenchConfig struct {
	// Seed fixes the city and therefore the whole run.
	Seed uint64
	// Persons sizes the population shared by every scenario (default 2000).
	Persons int
	// QueryCounts is the sweep of queries per search (default {1, 8, 64}).
	QueryCounts []int
	// StationCounts is the sweep of cluster sizes (default {4, 16}).
	StationCounts []int
	// Repetitions is the number of timed searches per scenario after one
	// untimed warm-up (default 10).
	Repetitions int
}

func (c BatchBenchConfig) withDefaults() BatchBenchConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Persons == 0 {
		c.Persons = 2000
	}
	if len(c.QueryCounts) == 0 {
		c.QueryCounts = []int{1, 8, 64}
	}
	if len(c.StationCounts) == 0 {
		c.StationCounts = []int{4, 16}
	}
	if c.Repetitions == 0 {
		c.Repetitions = 10
	}
	return c
}

// BatchScenario is one measured cell of the sweep.
type BatchScenario struct {
	Transport string `json:"transport"`
	Stations  int    `json:"stations"`
	Queries   int    `json:"queries"`
	// Mode is "batched" (one KindBatchQuery exchange per station per
	// search) or "unbatched" (rounds of one query, WithBatching(1): one
	// KindBatchQuery exchange per query per station).
	Mode        string `json:"mode"`
	Repetitions int    `json:"repetitions"`
	// ThroughputQPS is queries answered per second of search wall-clock.
	ThroughputQPS float64 `json:"throughput_qps"`
	// P50Micros / P99Micros are per-search latency percentiles. With small
	// repetition counts p99 degrades to the maximum observed.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// BytesPerQuery / MessagesPerQuery divide one search's wire totals
	// (both directions) by the query count.
	BytesPerQuery    float64 `json:"bytes_per_query"`
	MessagesPerQuery float64 `json:"messages_per_query"`
	// MessagesTotal / BytesTotal are one search's absolute totals.
	MessagesTotal uint64 `json:"messages_total"`
	BytesTotal    uint64 `json:"bytes_total"`
}

// BatchSummary is the headline comparison at one sweep cell: how much the
// batched pipeline wins over the unbatched one.
type BatchSummary struct {
	Stations int `json:"stations"`
	Queries  int `json:"queries"`
	// MessagesPerQueryRatio is unbatched / batched messages per query —
	// the wire-exchange amortization factor.
	MessagesPerQueryRatio float64 `json:"messages_per_query_ratio"`
	// ThroughputRatio is batched / unbatched throughput.
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// BatchReport is the full run, serialized to BENCH_batch.json.
type BatchReport struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Config     BatchBenchConfig `json:"config"`
	Scenarios  []BatchScenario  `json:"scenarios"`
	// Summaries holds one batched-vs-unbatched comparison per (stations,
	// queries) cell with more than one query.
	Summaries []BatchSummary `json:"summaries"`
}

// batchBenchSchema versions the JSON layout for the CI validator.
const batchBenchSchema = "dimatch-batch-bench/v1"

// batchQuerySet builds n query pattern sets from the city's persons,
// spreading across categories so the filters carry realistic weight tables.
func batchQuerySet(d *cdr.Dataset, n int) ([]core.Query, error) {
	var persons []cdr.PersonID
	for _, cat := range cdr.Categories() {
		persons = append(persons, pickReferences(d, cat, n)...)
	}
	if len(persons) < n {
		return nil, fmt.Errorf("bench: only %d reference persons for %d queries", len(persons), n)
	}
	queries := make([]core.Query, n)
	for i := 0; i < n; i++ {
		queries[i] = queryFor(d, core.QueryID(i+1), persons[i])
	}
	return queries, nil
}

// tcpBatchCluster stands up a loopback-TCP deployment of the city: one
// listener, one dialled connection and one serving goroutine per station.
func tcpBatchCluster(d *cdr.Dataset, opts cluster.Options) (*cluster.Cluster, func(), error) {
	data := stationData(d)
	ln, err := transport.Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint32, 0, len(data))
	for id := range data {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	links := make(map[uint32]transport.Link, len(ids))
	for _, id := range ids {
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
			_ = cluster.ServeStation(id, data[id], link)
		}(id, stationLink)
	}
	c, err := cluster.NewWithLinks(opts, links, d.Length(), nil, nil)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	cleanup := func() {
		_ = c.Shutdown()
		_ = ln.Close()
	}
	return c, cleanup, nil
}

// runBatchScenario times one (cluster, queries, mode) cell. Summary
// routing is forced off so the cell isolates what batching buys — the
// routed-vs-full comparison has its own baseline (BENCH_routing.json).
func runBatchScenario(ctx context.Context, c *cluster.Cluster, queries []core.Query, mode string, reps int) (BatchScenario, error) {
	batchSize := 0 // batched: whole set in one round
	if mode == "unbatched" {
		batchSize = 1
	}
	opts := []cluster.SearchOption{cluster.WithBatching(batchSize), cluster.WithRouting(cluster.RoutingFull)}
	// Warm-up: fills the epoch's stats cache and the TCP buffers.
	if _, err := c.Search(ctx, queries, opts...); err != nil {
		return BatchScenario{}, err
	}
	durations := make([]time.Duration, 0, reps)
	var last *cluster.Outcome
	start := time.Now()
	for i := 0; i < reps; i++ {
		out, err := c.Search(ctx, queries, opts...)
		if err != nil {
			return BatchScenario{}, err
		}
		durations = append(durations, out.Cost.Elapsed)
		last = out
	}
	total := time.Since(start)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(durations)-1))
		return float64(durations[idx].Microseconds())
	}
	msgs := last.Cost.MessagesDown + last.Cost.MessagesUp
	bytes := last.Cost.TotalBytes()
	q := float64(len(queries))
	return BatchScenario{
		Transport:        "tcp",
		Stations:         c.Stations(),
		Queries:          len(queries),
		Mode:             mode,
		Repetitions:      reps,
		ThroughputQPS:    q * float64(reps) / total.Seconds(),
		P50Micros:        pct(0.50),
		P99Micros:        pct(0.99),
		BytesPerQuery:    float64(bytes) / q,
		MessagesPerQuery: float64(msgs) / q,
		MessagesTotal:    msgs,
		BytesTotal:       bytes,
	}, nil
}

// RunBatchBench executes the full sweep and assembles the report.
func RunBatchBench(ctx context.Context, cfg BatchBenchConfig) (*BatchReport, error) {
	cfg = cfg.withDefaults()
	report := &BatchReport{
		Schema:     batchBenchSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	for _, stations := range cfg.StationCounts {
		city := cdr.DefaultConfig()
		city.Seed = cfg.Seed
		city.Persons = cfg.Persons
		city.Stations = stations
		d, err := cdr.Generate(city)
		if err != nil {
			return nil, err
		}
		c, cleanup, err := tcpBatchCluster(d, cluster.Options{
			Params: core.Params{Samples: 8, Epsilon: 0, Seed: cfg.Seed},
			TopK:   10,
		})
		if err != nil {
			return nil, err
		}
		for _, nq := range cfg.QueryCounts {
			queries, err := batchQuerySet(d, nq)
			if err != nil {
				cleanup()
				return nil, err
			}
			var cell [2]BatchScenario
			for i, mode := range []string{"batched", "unbatched"} {
				s, err := runBatchScenario(ctx, c, queries, mode, cfg.Repetitions)
				if err != nil {
					cleanup()
					return nil, err
				}
				cell[i] = s
				report.Scenarios = append(report.Scenarios, s)
			}
			if nq > 1 && cell[0].MessagesPerQuery > 0 && cell[1].ThroughputQPS > 0 {
				report.Summaries = append(report.Summaries, BatchSummary{
					Stations:              stations,
					Queries:               nq,
					MessagesPerQueryRatio: cell[1].MessagesPerQuery / cell[0].MessagesPerQuery,
					ThroughputRatio:       cell[0].ThroughputQPS / cell[1].ThroughputQPS,
				})
			}
		}
		cleanup()
	}
	return report, nil
}

// WriteBatchBenchJSON serializes the report, indented for diff-friendly
// commits of the recorded baseline.
func WriteBatchBenchJSON(w io.Writer, r *BatchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CheckBatchBenchJSON validates a serialized report: parseable, the right
// schema, non-empty, every scenario carries real measurements, and every
// summary shows the batched pipeline actually amortizing exchanges
// (messages-per-query ratio ≥ 2). The ratio bound is protocol-determined
// — an n-query round is n frames per station unbatched vs one batched — so
// it is deterministic across machines, unlike throughput; a change that
// silently splits every search into rounds of one query fails here. CI runs
// this against both the freshly generated artifact and the committed
// BENCH_batch.json.
func CheckBatchBenchJSON(r io.Reader) error {
	var report BatchReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&report); err != nil {
		return fmt.Errorf("bench: malformed batch report: %w", err)
	}
	if report.Schema != batchBenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", report.Schema, batchBenchSchema)
	}
	if len(report.Scenarios) == 0 {
		return fmt.Errorf("bench: batch report has no scenarios")
	}
	for i, s := range report.Scenarios {
		if s.Mode != "batched" && s.Mode != "unbatched" {
			return fmt.Errorf("bench: scenario %d has unknown mode %q", i, s.Mode)
		}
		if s.Repetitions <= 0 || s.ThroughputQPS <= 0 || s.MessagesTotal == 0 || s.BytesTotal == 0 {
			return fmt.Errorf("bench: scenario %d (%d stations, %d queries, %s) has empty measurements", i, s.Stations, s.Queries, s.Mode)
		}
	}
	if len(report.Summaries) == 0 {
		return fmt.Errorf("bench: batch report has no summaries")
	}
	for _, sm := range report.Summaries {
		if sm.MessagesPerQueryRatio < 2 {
			return fmt.Errorf("bench: %d queries x %d stations: messages-per-query ratio %.2f < 2 — batching is not amortizing exchanges", sm.Queries, sm.Stations, sm.MessagesPerQueryRatio)
		}
	}
	return nil
}

// RenderBatchBench prints the report as an aligned text table plus the
// headline ratios.
func RenderBatchBench(w io.Writer, r *BatchReport) {
	fmt.Fprintf(w, "Batch pipeline baseline (%s, %s/%s, GOMAXPROCS=%d)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS)
	fmt.Fprintf(w, "%9s %8s %10s %14s %10s %10s %12s %10s\n",
		"stations", "queries", "mode", "thruput q/s", "p50 µs", "p99 µs", "bytes/query", "msgs/query")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "%9d %8d %10s %14.1f %10.0f %10.0f %12.0f %10.2f\n",
			s.Stations, s.Queries, s.Mode, s.ThroughputQPS, s.P50Micros, s.P99Micros, s.BytesPerQuery, s.MessagesPerQuery)
	}
	for _, sm := range r.Summaries {
		fmt.Fprintf(w, "batched vs unbatched at %d queries x %d stations: %.1fx fewer messages/query, %.2fx throughput\n",
			sm.Queries, sm.Stations, sm.MessagesPerQueryRatio, sm.ThroughputRatio)
	}
}
