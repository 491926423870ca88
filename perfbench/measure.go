package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// upsert is one pattern the ingest producer submits.
type upsert struct {
	person core.PersonID
	pat    pattern.Pattern
}

// feed is the ingest-mixed producer: an open loop that submits one batch of
// hot-set upserts every period and flushes it, whether or not the previous
// batch finished on time.
type feed struct {
	seed      uint64
	hot, size int // hot-set size, patterns per batch
	// initial holds every person's placed pattern; last the latest flushed
	// pattern of each hot person the producer rewrote.
	initial map[core.PersonID]pattern.Pattern
	last    map[core.PersonID]pattern.Pattern
	// batches are the batches submitted in this run, in order.
	batches [][]upsert
	// lags run from each batch's due time to its Flush returning; late from
	// its due time to its first Submit (the generator's own lateness).
	lags, late []time.Duration
	acked      int
	submitted  uint64
	errs       []error
}

func newFeed(seed uint64, initial map[core.PersonID]pattern.Pattern, hot, batch int) *feed {
	return &feed{seed: seed, hot: hot, size: batch, initial: initial, last: make(map[core.PersonID]pattern.Pattern)}
}

// batchAt returns the k-th scheduled batch; it depends only on the seed and k.
// A batch is one interval's observations, so it carries at most one upsert
// per person: the pipeline orders a person's patterns only across Flush
// barriers (README.md, "Known defect").
func (f *feed) batchAt(k int) []upsert {
	rng := rand.New(rand.NewSource(int64(f.seed)*1_000_003 + int64(k) + 1))
	b := make([]upsert, 0, f.size)
	seen := make(map[core.PersonID]bool, f.size)
	for len(b) < f.size {
		p := core.PersonID(1 + rng.Intn(f.hot))
		if seen[p] {
			continue
		}
		seen[p] = true
		b = append(b, upsert{person: p, pat: randomPattern(rng)})
	}
	return b
}

// run submits and flushes every batch due before deadline.
func (f *feed) run(ctx context.Context, ing *dimatch.Ingestor, start, deadline time.Time) {
	every := ingestEveryMS * time.Millisecond
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		f.late = append(f.late, time.Since(due))
		b := f.batchAt(k)
		f.batches = append(f.batches, b)
		var err error
		for _, u := range b {
			f.submitted++
			if err = ing.Submit(ctx, u.person, u.pat); err != nil {
				break
			}
		}
		if err == nil {
			err = ing.Flush(ctx)
		}
		f.lags = append(f.lags, time.Since(due))
		if err != nil {
			f.errs = append(f.errs, fmt.Errorf("ingest batch %d: %w", k, err))
			continue
		}
		for _, u := range b {
			f.last[u.person] = u.pat
		}
		if time.Now().Before(deadline) {
			f.acked += len(b)
		}
	}
}

// current returns a person's pattern as the stations should now hold it.
func (f *feed) current(p core.PersonID) pattern.Pattern {
	if pat, ok := f.last[p]; ok {
		return pat
	}
	return f.initial[p]
}

// window is what one untraced measurement window observed.
type window struct {
	elapsed           time.Duration
	latencies         []float64 // ms
	searches, queries int
	bytes, messages   float64
	// found/expected count each pool op once, on its first run, so recall
	// does not depend on how many times a run cycled the pool.
	found, expected int
	attempted       int
	failed          int
	// mallocs and alloc are the process-wide allocation delta over
	// allocSearches searches.
	mallocs, alloc uint64
	allocSearches  int
	ops            []int // pool index of each timed search, for the replay
	errs           []error
	// ingest-mixed only
	ingestRate      float64
	lags, late      []float64 // ms
	sweepPersons    int
	streamAccounted bool
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 8 {
		w.errs = append(w.errs, err)
	}
}

// measure runs the workload's load for d: one closed-loop search client and,
// on ingest-mixed, the open-loop producer beside it.
func (in *instance) measure(ctx context.Context, d time.Duration) (*window, error) {
	w := &window{}
	var ing *dimatch.Ingestor
	if in.feed != nil {
		var err error
		if ing, err = in.deps[0].cl.Stream(dimatch.StreamOptions{Replication: replication}); err != nil {
			return nil, err
		}
	}
	seen := make([]bool, len(in.pool))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	produced := make(chan struct{})
	if ing != nil {
		go func() {
			defer close(produced)
			in.feed.run(ctx, ing, start, deadline)
		}()
	} else {
		close(produced)
	}
	for i := 0; time.Now().Before(deadline); i++ {
		idx := i % len(in.pool)
		op := in.pool[idx]
		t0 := time.Now()
		out, err := op.dep.cl.Search(ctx, op.queries)
		lat := time.Since(t0)
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("search: %w", err))
			continue
		}
		w.searches++
		w.queries += len(op.queries)
		w.latencies = append(w.latencies, ms(lat))
		c := out.Cost
		w.bytes += float64(c.TotalBytes() + c.SummaryBytesDown + c.SummaryBytesUp)
		w.messages += float64(c.MessagesDown + c.MessagesUp + 2*uint64(c.SummaryRefreshes))
		w.ops = append(w.ops, idx)
		v := op.check(out)
		if !v.ok {
			w.fail(fmt.Errorf("search %d (pool %d) failed its correctness check", i, idx))
		}
		if !seen[idx] {
			seen[idx] = true
			w.found += v.found
			w.expected += v.expected
		}
	}
	w.elapsed = time.Since(start)
	<-produced
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.alloc = after.TotalAlloc - before.TotalAlloc
	w.allocSearches = w.searches
	if ing != nil {
		in.finishIngest(ctx, ing, w, d)
		in.allocPass(ctx, w, allocSearches)
	}
	return w, nil
}

// allocPass measures allocations per search on its own, for a workload
// whose window also carries the producer's ingest traffic: the ingest
// allocates in proportion to time, the client in proportion to searches,
// so the window's ratio would follow the machine's speed.
func (in *instance) allocPass(ctx context.Context, w *window, n int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := 0
	for i := 0; i < n; i++ {
		op := in.pool[i%len(in.pool)]
		out, err := op.dep.cl.Search(ctx, op.queries)
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("search: %w", err))
			continue
		}
		done++
		if !op.check(out).ok {
			w.fail(fmt.Errorf("search %d (pool %d) failed its correctness check", i, i%len(in.pool)))
		}
	}
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.alloc = after.TotalAlloc - before.TotalAlloc
	w.allocSearches = done
}

// finishIngest drains the producer's pipeline, checks its accounting and
// sweeps the hot set: every hot person must be found by their latest
// flushed pattern.
func (in *instance) finishIngest(ctx context.Context, ing *dimatch.Ingestor, w *window, d time.Duration) {
	f := in.feed
	w.attempted += len(f.batches)
	for _, err := range f.errs {
		w.fail(err)
	}
	if err := ing.Flush(ctx); err != nil {
		w.fail(fmt.Errorf("final flush: %w", err))
	}
	st := ing.Report()
	if err := ing.Close(); err != nil {
		w.fail(fmt.Errorf("close stream: %w", err))
	}
	w.streamAccounted = st.Submitted == st.Accepted+st.Shed+st.Rejected && st.Submitted == f.submitted && st.FlushFailures == 0
	w.attempted++
	if !w.streamAccounted {
		w.fail(fmt.Errorf("stream accounting: submitted %d (producer %d), accepted %d, shed %d, rejected %d, flush failures %d",
			st.Submitted, f.submitted, st.Accepted, st.Shed, st.Rejected, st.FlushFailures))
	}
	w.ingestRate = float64(f.acked) / d.Seconds()
	for _, l := range f.lags {
		w.lags = append(w.lags, ms(l))
	}
	for _, l := range f.late {
		w.late = append(w.late, ms(l))
	}

	hot := make([]core.PersonID, f.hot)
	for i := range hot {
		hot[i] = core.PersonID(i + 1)
	}
	for lo := 0; lo < len(hot); lo += sweepBatch {
		hi := min(lo+sweepBatch, len(hot))
		queries := make([]core.Query, 0, hi-lo)
		for i, p := range hot[lo:hi] {
			queries = append(queries, core.Query{ID: core.QueryID(i + 1), Locals: []pattern.Pattern{f.current(p)}})
		}
		w.attempted += len(queries)
		w.sweepPersons += len(queries)
		out, err := in.deps[0].cl.Search(ctx, queries)
		if err != nil {
			w.failed += len(queries) - 1
			w.fail(fmt.Errorf("sweep search: %w", err))
			continue
		}
		for i, p := range hot[lo:hi] {
			found := false
			for _, r := range out.PerQuery[core.QueryID(i+1)] {
				found = found || r.Person == p
			}
			if !found {
				w.fail(fmt.Errorf("sweep: hot person %d not found by its last flushed pattern", p))
			}
		}
	}
}
