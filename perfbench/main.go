// Command perfbench is the repository benchmark. It sets up one named
// workload from a seed, drives the in-process cluster through the public
// dimatch API for a fixed window, checks every answer, and prints the
// end-to-end metrics. With --trace 1 it instead replays the window's
// operations layer by layer through the internal modules' exported
// functions and prints the per-layer metrics. README.md is the glossary.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload city-broad --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setups = 3

// workDir holds everything a run writes: WAL directories (removed when the
// run ends) and the span dump of the last traced run per workload.
var workDir = filepath.Join(".bench_build", "perfbench")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: city-broad, placed-needle or ingest-mixed")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 replays the window layer by layer and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want at least 1", seconds)
	}
	ctx := context.Background()
	runDir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	// Removal runs after the result is printed: on a filesystem mounted with
	// online discard, unlinking fsynced WAL files can take seconds.
	defer os.RemoveAll(runDir)

	setupTimes := make([]float64, 0, setups)
	var in *instance
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		inst, err := wl.setup(ctx, seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), benchSizes)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			inst.close()
		} else {
			in = inst
		}
	}
	defer in.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	liveHeap := float64(mem.HeapInuse) / (1 << 20)
	if err := in.prepare(ctx); err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, traced)
	fmt.Printf("# env go=%s GOMAXPROCS=%d nproc=%d wal_sync=%q wal_fs=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), in.walPolicy, fsType(runDir))

	window := time.Duration(seconds) * time.Second
	if traced {
		window /= 2 // the other half replays the window's operations
	}
	w, err := in.measure(ctx, window)
	if err != nil {
		return err
	}
	for _, e := range w.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed}
	if w.searches == 0 {
		return errors.New("no search completed in the window")
	}
	summarize(in, w)
	if !traced {
		res.Metrics = endToEnd(w, median(setupTimes), liveHeap)
	} else {
		t := newTracer()
		m, err := traceRun(ctx, in, w, t, window, runDir)
		if err != nil {
			return err
		}
		res.Metrics = m
		spans := filepath.Join(workDir, "trace", name+".spans.jsonl")
		if err := t.dump(spans); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
		fmt.Printf("# spans: %d written to %s\n", len(t.spans), spans)
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the gated metrics a user of the system sees. Every one
// is reported on every workload. summarize prints the rest: p99 latency,
// whose spread across runs on a shared host is too wide to gate (it is a
// per-layer metric of the traced run instead), the failed-operation ratio,
// carried by the result's attempted/failed counts, and the ingest figures,
// which exist only on ingest-mixed.
func endToEnd(w *window, setup, liveHeap float64) map[string]metric {
	q := float64(w.queries)
	lat := append([]float64(nil), w.latencies...)
	return map[string]metric{
		"setup_s":                {setup, "s"},
		"search_p50_ms":          {quantile(lat, 0.50), "ms"},
		"search_qps":             {q / w.elapsed.Seconds(), "1/s"},
		"bytes_per_query":        {w.bytes / q, "B"},
		"messages_per_query":     {w.messages / q, "count"},
		"allocs_per_search":      {ratio(float64(w.mallocs), float64(w.allocSearches)), "count"},
		"alloc_bytes_per_search": {ratio(float64(w.alloc), float64(w.allocSearches)), "B"},
		"live_heap_mb":           {liveHeap, "MB"},
		"recall":                 {ratio(float64(w.found), float64(w.expected)), "ratio"},
	}
}

// summarize prints the window's sample counts, failed-operation ratio and
// ingest figures.
func summarize(in *instance, w *window) {
	beyond := w.searches - int(float64(w.searches)*0.99)
	fmt.Printf("# samples: searches=%d (p99 has %d beyond it) queries=%d window_s=%.3f\n", w.searches, beyond, w.queries, w.elapsed.Seconds())
	fmt.Printf("# search_p99_ms %.3f ms\n", quantile(append([]float64(nil), w.latencies...), 0.99))
	fmt.Printf("# failed_op_ratio %.6f ratio (%d of %d operations)\n", ratio(float64(w.failed), float64(w.attempted)), w.failed, w.attempted)
	if in.feed == nil {
		fmt.Println("# ingest_patterns_per_s, ingest_lag_p50_ms, ingest_lag_p95_ms: n/a (no ingest on this workload)")
		return
	}
	lags := append([]float64(nil), w.lags...)
	fmt.Printf("# ingest_patterns_per_s %.1f 1/s (offered %d)\n", w.ingestRate, in.feed.size*1000/ingestEveryMS)
	fmt.Printf("# ingest_lag_p50_ms %.3f ms, ingest_lag_p95_ms %.3f ms (n=%d batches), generator lateness p50 %.3f ms\n",
		quantile(lags, 0.50), quantile(lags, 0.95), len(lags), quantile(append([]float64(nil), w.late...), 0.5))
	fmt.Printf("# stream accounting exact: %t; hot-set sweep: %d persons\n", w.streamAccounted, w.sweepPersons)
}

// searchLayers are the span names of one replayed search's layers; the
// root "search" span's own time is the replay's bookkeeping.
var searchLayers = []string{
	"core.encode", "wire.query_encode", "index.plan", "wire.query_decode",
	"core.station_match", "wire.reply_encode", "transport.transit",
	"wire.reply_decode", "core.aggregate", "core.rank", "cluster.verify",
}

// traceRun replays the window's operations and computes the per-layer
// metrics.
func traceRun(ctx context.Context, in *instance, w *window, t *tracer, budget time.Duration, runDir string) (map[string]metric, error) {
	var batches [][]upsert
	if in.feed != nil {
		batches = in.feed.batches
	}
	rp, err := newReplay(in, t, batches)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	searchBudget := budget
	if len(batches) > 0 {
		searchBudget = budget * 6 / 10
	}
	if err := rp.replaySearches(ctx, in.pool, w.ops, searchBudget); err != nil {
		return nil, err // refuse to emit layer numbers
	}
	// The digests as the coordinator holds them after the window; the
	// ingest replay below adds its batches to them a second time.
	var digestBytes uint64
	var falseAdmit float64
	var digests int
	for _, r := range rp.rs {
		for _, d := range r.digests {
			digestBytes += d.SizeBytes()
			falseAdmit += d.FalseAdmitRate()
			digests++
		}
	}
	if len(batches) > 0 {
		if err := rp.rs[in.deps[0]].replayIngest(ctx, batches, filepath.Join(runDir, "replay-wal"), budget-searchBudget); err != nil {
			return nil, fmt.Errorf("ingest replay: %w", err)
		}
	}

	self := t.selfTimes()
	total := make(map[string]int64)
	maxMatch := make(map[int]int64)
	for i, s := range t.spans {
		total[s.Name] += self[i]
		if s.Name == "core.station_match" {
			maxMatch[s.Op] = max(maxMatch[s.Op], s.dur())
		}
	}
	var maxSum, layerSum int64
	for _, d := range maxMatch {
		maxSum += d
	}
	for _, name := range searchLayers {
		layerSum += total[name]
	}
	c := rp.c
	ns := float64(c.searches)
	nb := float64(c.batches)
	perSearch := func(name string) float64 { return ratio(nsToMS(total[name]), ns) }
	perBatch := func(name string) float64 { return ratio(nsToMS(total[name]), nb) }
	lags := append([]float64(nil), w.lags...)
	m := map[string]metric{
		"search_p99_ms":                     {quantile(append([]float64(nil), w.latencies...), 0.99), "ms"},
		"core.encode.self_ms":               {perSearch("core.encode"), "ms"},
		"core.encode.allocs":                {ratio(float64(c.encodeAllocs), ns), "count"},
		"core.filter.bytes":                 {ratio(c.filterBytes, ns), "B"},
		"core.filter.fill_ratio":            {ratio(c.fillRatio, ns), "ratio"},
		"wire.query_encode.self_ms":         {perSearch("wire.query_encode"), "ms"},
		"wire.query_decode.self_ms":         {perSearch("wire.query_decode"), "ms"},
		"wire.query_decode.allocs":          {ratio(float64(c.decodeAllocs), ns), "count"},
		"wire.reply_encode.self_ms":         {perSearch("wire.reply_encode"), "ms"},
		"wire.reply_decode.self_ms":         {perSearch("wire.reply_decode"), "ms"},
		"wire.bytes_down":                   {ratio(float64(c.bytesDown), ns), "B"},
		"wire.bytes_up":                     {ratio(float64(c.bytesUp), ns), "B"},
		"index.plan.self_ms":                {perSearch("index.plan"), "ms"},
		"index.plan.probes":                 {ratio(float64(c.probes), ns), "count"},
		"index.plan.stations_visited":       {ratio(float64(c.visited), ns), "count"},
		"index.plan.useful_visit_ratio":     {ratio(float64(c.useful), float64(c.visited)), "ratio"},
		"index.digest_build.self_ms":        {nsToMS(total["index.digest_build"]), "ms"},
		"index.digest_update.self_ms":       {perBatch("index.digest_update"), "ms"},
		"index.digest.bytes":                {float64(digestBytes), "B"},
		"index.digest.false_admit_rate":     {falseAdmit / float64(digests), "ratio"},
		"transport.transit.self_ms":         {perSearch("transport.transit"), "ms"},
		"transport.messages":                {ratio(float64(c.messages), ns), "count"},
		"core.station_match.self_ms":        {perSearch("core.station_match"), "ms"},
		"core.station_match.max_station_ms": {ratio(nsToMS(maxSum), ns), "ms"},
		"core.station_match.residents":      {ratio(float64(c.residents), ns), "count"},
		"core.station_match.reports":        {ratio(float64(c.reports), ns), "count"},
		"core.station_match.report_yield":   {ratio(float64(c.yielded), float64(c.reports)), "ratio"},
		"core.aggregate.self_ms":            {perSearch("core.aggregate"), "ms"},
		"core.aggregate.candidates":         {ratio(float64(c.candidates), ns), "count"},
		"core.rank.self_ms":                 {perSearch("core.rank"), "ms"},
		"cluster.verify.self_ms":            {perSearch("cluster.verify"), "ms"},
		"cluster.verify.stations_fetched":   {ratio(float64(c.verifyStations), ns), "count"},
		"cluster.verify.bytes":              {ratio(float64(c.verifyBytes), ns), "B"},
		"cluster.verify.kept_ratio":         {ratio(float64(c.verifyKept), float64(c.verifyCands)), "ratio"},
		"cluster.unattributed_ms":           {ratio(nsToMS(c.untracedNS-layerSum), ns), "ms"},
		"trace.coverage":                    {ratio(float64(layerSum), float64(c.untracedNS)), "ratio"},
		"trace.overhead_ms":                 {ratio(nsToMS(c.tracedNS-c.untracedNS), ns), "ms"},
		"trace.searches":                    {ns, "count"},
		"placement.hrw.self_ms":             {perBatch("placement.hrw"), "ms"},
		"stream.submit_wait.self_ms":        {perBatch("stream.submit_wait"), "ms"},
		"stream.flush.self_ms":              {perBatch("stream.flush"), "ms"},
		"stream.copies_per_flush":           {ratio(float64(c.flushed), float64(c.flushes)), "count"},
		"stream.blocked":                    {float64(c.blocked), "count"},
		"stream.queue_depth_max":            {float64(c.queueMax), "count"},
		"wire.ingest_encode.self_ms":        {perBatch("wire.ingest_encode"), "ms"},
		"wire.ingest_bytes_per_pattern":     {ratio(float64(c.ingestBytes), float64(c.copies)), "B"},
		"wal.append.self_ms":                {perBatch("wal.append"), "ms"},
		"wal.sync.self_ms":                  {ratio(nsToMS(total["wal.append"]-total["wal.append_deferred"]), nb), "ms"},
		"wal.write_amplification":           {ratio(float64(c.walLogBytes), float64(c.userBytes)), "ratio"},
		"wal.records":                       {float64(c.walRecords), "count"},
		"trace.ingest_batches":              {nb, "count"},
		"ingest.patterns_per_s":             {w.ingestRate, "1/s"},
		"ingest.lag_p50_ms":                 {quantile(lags, 0.50), "ms"},
		"ingest.lag_p95_ms":                 {quantile(lags, 0.95), "ms"},
	}
	fmt.Printf("# replay equivalent to Cluster.Search on %d searches\n", c.searches)
	fmt.Printf("# trace.coverage %.3f, tracing overhead %.3f ms per search (traced %.3f ms, untraced %.3f ms)\n",
		m["trace.coverage"].Value, m["trace.overhead_ms"].Value, ratio(nsToMS(c.tracedNS), ns), ratio(nsToMS(c.untracedNS), ns))
	return m, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0x858458F6: "ramfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return strings.ToLower(fmt.Sprintf("0x%x", st.Type))
}
