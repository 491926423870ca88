package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// echoPeer is the far end of a transport.Pipe that answers every request
// with the reply the replay recorded for it, so a transit span covers frame
// encode, channel hand-off, frame decode and Mux dispatch, and nothing else.
type echoPeer struct {
	mux     *transport.Mux
	replies chan wire.Message
	stop    chan struct{}
	done    chan struct{}
}

func newEchoPeer() *echoPeer {
	center, station := transport.Pipe(nil, nil)
	e := &echoPeer{
		mux:     transport.NewMux(center),
		replies: make(chan wire.Message, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(e.done)
		for {
			req, err := station.Recv()
			if err != nil {
				return
			}
			var reply wire.Message
			select {
			case reply = <-e.replies:
			case <-e.stop:
				return
			}
			if station.Send(reply.WithRequest(req.Request)) != nil {
				return
			}
		}
	}()
	return e
}

func (e *echoPeer) roundtrip(ctx context.Context, req, reply wire.Message) (wire.Message, error) {
	e.replies <- reply
	got, err := e.mux.RoundtripMany(ctx, []wire.Message{req})
	if err != nil {
		return wire.Message{}, err
	}
	return got[0], nil
}

func (e *echoPeer) close() {
	close(e.stop)
	_ = e.mux.Close()
	<-e.done
}

// layerCounts accumulates the traced run's counters.
type layerCounts struct {
	searches                   int
	filterBytes, fillRatio     float64
	encodeAllocs, decodeAllocs uint64
	bytesDown, bytesUp         uint64
	messages                   uint64
	probes                     uint64
	visited, useful            int
	residents, reports         int
	yielded                    int
	candidates                 int
	verifyStations             int
	verifyBytes                uint64
	verifyCands, verifyKept    int
	untracedNS, tracedNS       int64

	batches     int
	copies      int
	ingestBytes uint64
	walRecords  int
	walLogBytes uint64
	userBytes   uint64
	flushes     uint64
	flushed     uint64
	blocked     uint64
	queueMax    int
}

// replay is the traced run's shared state: the tracer, the transit echo
// peer, the counters, and one replayer per deployment.
type replay struct {
	t    *tracer
	echo *echoPeer
	c    layerCounts
	rs   map[*deployment]*replayer
}

// replayer re-executes one deployment's recorded operations layer by layer
// through the modules' exported functions, over station contents rebuilt
// from the generated inputs.
type replayer struct {
	*replay
	dep     *deployment
	persons map[uint32][]core.PersonID
	locals  map[uint32][]pattern.Pattern
	digests map[uint32]*index.Summary
	pred    func(core.PersonID) bool
}

// newReplay builds a replayer for every deployment of the instance. extra
// are the ingest producer's batches, applied to the (single) deployment of
// a workload with a feed. Callers own close.
func newReplay(in *instance, t *tracer, extra [][]upsert) (*replay, error) {
	rp := &replay{t: t, rs: make(map[*deployment]*replayer, len(in.deps))}
	for _, dep := range in.deps {
		r, err := rp.newReplayer(dep, extra)
		if err != nil {
			return nil, err
		}
		rp.rs[dep] = r
	}
	rp.echo = newEchoPeer()
	return rp, nil
}

func (rp *replay) close() { rp.echo.close() }

// newReplayer rebuilds every station's resident store (sorted by person,
// all-zero patterns dropped, as a station keeps it) and the routing digest
// the coordinator caches for it. extra are upserts applied after the
// initial contents: they replace residents, and their cells are added to
// the digests the way the coordinator's delta update adds them.
func (rp *replay) newReplayer(dep *deployment, extra [][]upsert) (*replayer, error) {
	t := rp.t
	r := &replayer{
		replay:  rp,
		dep:     dep,
		persons: make(map[uint32][]core.PersonID, len(dep.ids)),
		locals:  make(map[uint32][]pattern.Pattern, len(dep.ids)),
		digests: make(map[uint32]*index.Summary, len(dep.ids)),
	}
	if dep.placed {
		r.pred = func(core.PersonID) bool { return true }
	}
	contents := make(map[uint32]map[core.PersonID]pattern.Pattern, len(dep.ids))
	for _, id := range dep.ids {
		contents[id] = make(map[core.PersonID]pattern.Pattern, len(dep.data[id]))
		for p, l := range dep.data[id] {
			if l.Sum() != 0 {
				contents[id][p] = l
			}
		}
	}
	for _, id := range dep.ids {
		persons, locals := sortedStore(contents[id])
		length := dep.length
		if len(locals) == 0 {
			length = 1 // an empty station's placeholder digest
		}
		sp := t.begin("index.digest_build")
		d, err := index.Build(length, locals)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		r.digests[id] = d
		r.persons[id], r.locals[id] = persons, locals
	}
	if len(extra) == 0 {
		return r, nil
	}
	for _, b := range extra {
		for _, u := range b {
			for _, sid := range placement.Pick(u.person, dep.ids, replication) {
				contents[sid][u.person] = u.pat
				if err := r.digests[sid].Add(u.pat); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, id := range dep.ids {
		r.persons[id], r.locals[id] = sortedStore(contents[id])
	}
	return r, nil
}

func sortedStore(m map[core.PersonID]pattern.Pattern) ([]core.PersonID, []pattern.Pattern) {
	persons := make([]core.PersonID, 0, len(m))
	for p := range m {
		persons = append(persons, p)
	}
	sort.Slice(persons, func(i, j int) bool { return persons[i] < persons[j] })
	locals := make([]pattern.Pattern, len(persons))
	for i, p := range persons {
		locals[i] = m[p]
	}
	return persons, locals
}

// replayCost is what a replayed search would have billed, in the
// CostReport's terms.
type replayCost struct {
	visited, pruned          int
	probes                   uint64
	reports                  int
	bytesDown, bytesUp       uint64
	messagesDown, messagesUp uint64
	perQuery                 map[core.QueryID][]core.Result
}

// search replays one WBF search: encode, frame, plan, then per visited
// station query decode, match, reply encode, transit, reply decode and
// aggregation, then ranking and verification.
func (r *replayer) search(ctx context.Context, queries []core.Query) (*replayCost, error) {
	t, dep := r.t, r.dep
	cost := &replayCost{perQuery: make(map[core.QueryID][]core.Result, len(queries))}
	root := t.begin("search")
	defer t.end(root)

	sp, m0 := t.beginCounted("core.encode")
	params := dep.opts.Params
	if params.Bits == 0 {
		var err error
		if params, err = core.SizedParams(params, dep.length, queries, dep.opts.TargetFP); err != nil {
			return nil, err
		}
	}
	enc, err := core.NewEncoder(params, dep.length)
	if err != nil {
		return nil, err
	}
	ids := make([]core.QueryID, 0, len(queries))
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			return nil, err
		}
		ids = append(ids, q.ID)
	}
	filter := enc.Filter()
	t.endCounted(sp, m0)
	r.c.encodeAllocs += t.spans[sp].Allocs
	r.c.filterBytes += float64(filter.SizeBytes())
	r.c.fillRatio += filter.FillRatio()

	sp = t.begin("wire.query_encode")
	msg, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: filter})
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.begin("index.plan")
	visit, probes := r.plan(queries)
	t.end(sp)
	cost.probes = probes
	cost.visited = len(visit)
	cost.pruned = len(dep.ids) - len(visit)

	agg := core.NewBatchAggregator()
	agg.SetReplicated(r.pred)
	var reported []core.Report
	for _, sid := range visit {
		sp, m0 := t.beginCounted("wire.query_decode")
		bq, err := wire.DecodeBatchQuery(msg)
		t.endCounted(sp, m0)
		if err != nil {
			return nil, err
		}
		r.c.decodeAllocs += t.spans[sp].Allocs

		sp = t.begin("core.station_match")
		reports, err := core.MatchResidents(bq.Filter, r.persons[sid], r.locals[sid], 0)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		r.c.residents += len(r.persons[sid])

		sp = t.begin("wire.reply_encode")
		reply := wire.EncodeBatchReply(wire.BatchReply{Station: sid, Queries: uint32(len(bq.Queries)), Reports: reports})
		t.end(sp)

		sp = t.begin("transport.transit")
		got, err := r.echo.roundtrip(ctx, msg, reply)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		cost.bytesDown += uint64(msg.EncodedSize())
		cost.bytesUp += uint64(got.EncodedSize())
		cost.messagesDown++
		cost.messagesUp++

		sp = t.begin("wire.reply_decode")
		br, err := wire.DecodeBatchReply(got)
		t.end(sp)
		if err != nil {
			return nil, err
		}

		sp = t.begin("core.aggregate")
		for _, rep := range br.Reports {
			if err := agg.AddFrom(filter.Weights(), rep); err != nil {
				t.end(sp)
				return nil, err
			}
		}
		t.end(sp)
		cost.reports += len(br.Reports)
		if len(br.Reports) > 0 {
			r.c.useful++
		}
		reported = append(reported, br.Reports...)
	}
	for _, q := range queries {
		r.c.candidates += agg.Candidates(q.ID)
	}

	sp = t.begin("core.rank")
	for _, q := range queries {
		cost.perQuery[q.ID] = rank(dep.opts, agg, q.ID)
	}
	t.end(sp)

	if dep.opts.Verify {
		sp = t.begin("cluster.verify")
		err := r.verify(ctx, queries, cost)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}

	final := make(map[core.PersonID]bool)
	for _, rs := range cost.perQuery {
		for _, res := range rs {
			final[res.Person] = true
		}
	}
	for _, rep := range reported {
		if final[rep.Person] {
			r.c.yielded++
		}
	}
	r.c.searches++
	r.c.reports += cost.reports
	r.c.visited += cost.visited
	r.c.probes += cost.probes
	r.c.bytesDown += cost.bytesDown
	r.c.bytesUp += cost.bytesUp
	r.c.messages += cost.messagesDown + cost.messagesUp
	return cost, nil
}

// plan is summary routing's flat scan: probe every cached digest with each
// query's band probe, keep the stations some probe admits, and fall back to
// every station when the plan would keep all or none of them.
func (r *replayer) plan(queries []core.Query) (visit []uint32, evaluated uint64) {
	ids := r.dep.ids
	if len(ids) < 2 {
		return ids, 0
	}
	samples := r.dep.opts.Params.Samples
	if samples == 0 {
		samples = core.DefaultSamples
	}
	probes := make([]index.Probe, 0, len(queries))
	selective := false
	for _, q := range queries {
		pr, err := index.NewProbe(q, samples, r.dep.opts.Params.Epsilon)
		if err != nil {
			return ids, 0
		}
		probes = append(probes, pr)
		selective = selective || pr.Selective()
	}
	if !selective {
		return ids, 0
	}
	for _, id := range ids {
		for _, pr := range probes {
			evaluated++
			if r.digests[id].Admits(pr) {
				visit = append(visit, id)
				break
			}
		}
	}
	if len(visit) == len(ids) || len(visit) == 0 {
		return ids, evaluated
	}
	return visit, evaluated
}

// rank finalizes one query's candidates the way a WBF search does: with a
// MinScore, keep scores within [MinScore, 2-MinScore] ranked by closeness
// to 1; without one, Algorithm 3's TopK.
func rank(opts dimatch.Options, agg *core.Aggregator, q core.QueryID) []core.Result {
	if opts.MinScore <= 0 {
		return agg.TopK(q, opts.TopK)
	}
	lo, hi := opts.MinScore, 2-opts.MinScore
	results := agg.Results(q)
	kept := results[:0]
	for _, res := range results {
		if s := res.Score(); s >= lo && s <= hi {
			kept = append(kept, res)
		}
	}
	dist := func(res core.Result) float64 {
		d := 1 - res.Score()
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.Slice(kept, func(i, j int) bool {
		di, dj := dist(kept[i]), dist(kept[j])
		if di != dj {
			return di < dj
		}
		return kept[i].Person < kept[j].Person
	})
	if opts.TopK > 0 && len(kept) > opts.TopK {
		kept = kept[:opts.TopK]
	}
	return kept
}

// verify replays the verification phase: fetch every candidate's locals
// from every station, materialize globals, keep exact Eq. 2 matches. The
// station side of the fetch (decode, store scan, encode) runs here too.
func (r *replayer) verify(ctx context.Context, queries []core.Query, cost *replayCost) error {
	t, dep := r.t, r.dep
	candidates := make(map[core.PersonID]bool)
	for _, rs := range cost.perQuery {
		for _, res := range rs {
			candidates[res.Person] = true
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	fetch := wire.Fetch{Persons: make([]core.PersonID, 0, len(candidates))}
	for p := range candidates {
		fetch.Persons = append(fetch.Persons, p)
	}
	msg := wire.EncodeFetch(fetch)
	globals := make(map[core.PersonID]pattern.Pattern, len(candidates))
	for _, sid := range dep.ids {
		req, err := wire.DecodeFetch(msg)
		if err != nil {
			return err
		}
		wanted := make(map[core.PersonID]bool, len(req.Persons))
		for _, p := range req.Persons {
			wanted[p] = true
		}
		var data wire.NaiveData
		data.Station = sid
		for i, p := range r.persons[sid] {
			if wanted[p] {
				data.Persons = append(data.Persons, p)
				data.Locals = append(data.Locals, r.locals[sid][i])
			}
		}
		reply, err := wire.EncodeNaiveData(data)
		if err != nil {
			return err
		}
		sp := t.begin("transport.transit")
		got, err := r.echo.roundtrip(ctx, msg, reply)
		t.end(sp)
		if err != nil {
			return err
		}
		back, err := wire.DecodeNaiveData(got)
		if err != nil {
			return err
		}
		for i, p := range back.Persons {
			g := globals[p]
			if g == nil {
				g = make(pattern.Pattern, dep.length)
				globals[p] = g
			} else if r.pred != nil && r.pred(p) {
				continue // replicas are identical: the first copy is the global
			}
			for j, v := range back.Locals[i] {
				g[j] += v
			}
		}
		cost.bytesDown += uint64(msg.EncodedSize())
		cost.bytesUp += uint64(got.EncodedSize())
		cost.messagesDown++
		cost.messagesUp++
		r.c.verifyBytes += uint64(msg.EncodedSize() + got.EncodedSize())
		r.c.verifyStations++
	}
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return err
		}
		results := cost.perQuery[q.ID]
		kept := results[:0]
		for _, res := range results {
			if pattern.Similar(qGlobal, globals[res.Person], dep.opts.Params.Epsilon) {
				kept = append(kept, res)
			}
		}
		r.c.verifyCands += len(results)
		r.c.verifyKept += len(kept)
		cost.perQuery[q.ID] = kept
	}
	return nil
}

// equivalent compares a replayed search with an untraced Cluster.Search on
// the same inputs: results, and every count the CostReport carries.
func equivalent(queries []core.Query, got *replayCost, live *dimatch.Outcome) error {
	for _, q := range queries {
		if !sameRanked(got.perQuery[q.ID], live.PerQuery[q.ID]) {
			return fmt.Errorf("query %d: replay results %v, search results %v", q.ID, got.perQuery[q.ID], live.PerQuery[q.ID])
		}
	}
	c := live.Cost
	type pair struct {
		name       string
		replay, cl uint64
	}
	for _, p := range []pair{
		{"stations pruned", uint64(got.pruned), uint64(c.StationsPruned)},
		{"subtree probes", got.probes, c.SubtreeProbes},
		{"reports received", uint64(got.reports), uint64(c.ReportsReceived)},
		{"bytes down", got.bytesDown, c.BytesDown},
		{"bytes up", got.bytesUp, c.BytesUp},
		{"messages down", got.messagesDown, c.MessagesDown},
		{"messages up", got.messagesUp, c.MessagesUp},
		{"summary refreshes", 0, uint64(c.SummaryRefreshes)},
		{"stations failed", 0, uint64(c.StationsFailed)},
	} {
		if p.replay != p.cl {
			return fmt.Errorf("%s: replay %d, search %d", p.name, p.replay, p.cl)
		}
	}
	return nil
}

// errNotEquivalent marks a replay that diverged from the program.
var errNotEquivalent = errors.New("replay is not equivalent to Cluster.Search")

// replaySearches replays recorded searches (indexes into pool) until the
// budget runs out, at least minReplayed of them, checking each against an
// untraced search on the same inputs.
func (rp *replay) replaySearches(ctx context.Context, pool []*searchOp, ops []int, budget time.Duration) error {
	const minReplayed = 10
	deadline := time.Now().Add(budget)
	for k, idx := range ops {
		if k >= minReplayed && !time.Now().Before(deadline) {
			break
		}
		op := pool[idx]
		t0 := time.Now()
		live, err := op.dep.cl.Search(ctx, op.queries)
		untraced := time.Since(t0)
		if err != nil {
			return fmt.Errorf("untraced search: %w", err)
		}
		rp.t.op = k
		root := len(rp.t.spans)
		got, err := rp.rs[op.dep].search(ctx, op.queries)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := equivalent(op.queries, got, live); err != nil {
			return fmt.Errorf("%w: op %d: %v", errNotEquivalent, k, err)
		}
		rp.c.untracedNS += int64(untraced)
		rp.c.tracedNS += rp.t.spans[root].dur()
	}
	rp.t.op = -1
	return nil
}

// replayIngest replays recorded producer batches through the ingest
// layers: HRW placement, ingest framing, WAL append (with the workload's
// fsync-per-batch policy, and again with sync deferred), the coordinator's
// digest delta, and the stream pipeline's Submit and Flush against the
// live cluster. It runs after the search replay, so re-submitting old
// batches cannot disturb the equivalence check.
func (r *replayer) replayIngest(ctx context.Context, batches [][]upsert, dir string, budget time.Duration) error {
	if len(batches) == 0 {
		return nil
	}
	dep, t := r.dep, r.t
	// One log per sync policy takes every station's batches: the append
	// cost is per batch, and fewer fsynced files keep clean-up cheap.
	syncLog, err := wal.Open(filepath.Join(dir, "sync"), wal.Options{})
	if err != nil {
		return err
	}
	defer syncLog.Close()
	lazyLog, err := wal.Open(filepath.Join(dir, "deferred"), wal.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	defer lazyLog.Close()
	ing, err := dep.cl.Stream(dimatch.StreamOptions{Replication: replication})
	if err != nil {
		return err
	}
	defer ing.Close() //nolint:errcheck // replay teardown; Flush errors are checked per batch
	before := ing.Report()

	deadline := time.Now().Add(budget)
	for k, b := range batches {
		if k > 0 && !time.Now().Before(deadline) {
			break
		}
		t.op = k
		root := t.begin("ingest")
		sp := t.begin("placement.hrw")
		targets := make([][]uint32, len(b))
		for i, u := range b {
			targets[i] = placement.Pick(u.person, dep.ids, replication)
		}
		t.end(sp)
		groups := make(map[uint32]map[core.PersonID]pattern.Pattern)
		for i, u := range b {
			for _, sid := range targets[i] {
				if groups[sid] == nil {
					groups[sid] = make(map[core.PersonID]pattern.Pattern)
				}
				groups[sid][u.person] = u.pat // latest wins, as one flush dedupes
			}
		}
		for _, sid := range dep.ids {
			g := groups[sid]
			if len(g) == 0 {
				continue
			}
			persons, locals := sortedStore(g)
			sp := t.begin("wire.ingest_encode")
			msg, err := wire.EncodeIngest(wire.Ingest{Persons: persons, Locals: locals})
			t.end(sp)
			if err != nil {
				return err
			}
			r.c.ingestBytes += uint64(msg.EncodedSize())
			r.c.copies += len(persons)
			r.c.userBytes += uint64(8 * dep.length * len(persons))

			batch := store.Batch{Op: store.OpIngest, Persons: persons, Locals: locals}
			sp = t.begin("wal.append")
			err = syncLog.Append(batch)
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("wal.append_deferred")
			err = lazyLog.Append(batch)
			t.end(sp)
			if err != nil {
				return err
			}

			sp = t.begin("index.digest_update")
			d := r.digests[sid].Clone()
			for _, l := range locals {
				if err = d.Add(l); err != nil {
					break
				}
			}
			t.end(sp)
			if err != nil {
				return err
			}
			r.digests[sid] = d
		}

		sp = t.begin("stream.submit_wait")
		for _, u := range b {
			if err = ing.Submit(ctx, u.person, u.pat); err != nil {
				break
			}
		}
		t.end(sp)
		if err != nil {
			return err
		}
		for _, s := range ing.Report().Stations {
			r.c.queueMax = max(r.c.queueMax, s.QueueDepth)
		}
		sp = t.begin("stream.flush")
		err = ing.Flush(ctx)
		t.end(sp)
		if err != nil {
			return err
		}
		t.end(root)
		r.c.batches++
	}
	t.op = -1
	after := ing.Report()
	r.c.flushes = after.Flushes - before.Flushes
	r.c.flushed = after.FlushedPatterns - before.FlushedPatterns
	r.c.blocked = after.Blocked - before.Blocked
	r.c.walRecords = syncLog.LogRecords()
	r.c.walLogBytes, err = dirBytes(filepath.Join(dir, "sync"))
	return err
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += uint64(info.Size())
		}
	}
	return n, nil
}
