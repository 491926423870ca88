package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
)

// sizes are a workload's population and load sizes. The glossary
// (README.md) explains each choice; tests run the same code at small sizes.
type sizes struct {
	cityPersons, cityStations int
	cityCities                int // seeded cities a run's searches alternate over
	cityBatches               int // distinct 20-query batches per city

	needlePersons, needleStations int
	needlePool                    int // distinct single-target queries a run cycles through

	ingestPersons, ingestStations int
	ingestHot                     int // persons 1..ingestHot are rewritten by the producer
	ingestPool                    int
	ingestBatch                   int // patterns per scheduled batch
}

// benchSizes are the sizes the benchmark runs at.
var benchSizes = sizes{
	cityPersons: 3000, cityStations: 64, cityCities: 4, cityBatches: 4,
	needlePersons: 20_000, needleStations: 256, needlePool: 160,
	ingestPersons: 100_000, ingestStations: 16, ingestHot: 20_000, ingestPool: 512, ingestBatch: 1000,
}

const (
	cityDays         = 7
	cityIntervals    = 4
	cityVolumeLevels = 17
	cityBatch        = 20 // queries per city-broad search
	cityFilterBits   = 1 << 15

	ingestEveryMS = 100  // batch period: ingestBatch/0.1 s offered
	sweepBatch    = 4000 // queries per final-sweep search
	allocSearches = 128  // searches of the ingest-mixed allocation pass

	placedLength = 12   // pattern length of the placed workloads
	placedMax    = 1000 // pattern values are drawn from [0, placedMax)
	replication  = 2
)

// figure4Weights is the category mix of the paper's Figure-4 city: office
// workers are the queried minority segment.
var figure4Weights = []float64{0.04, 0.192, 0.192, 0.192, 0.192, 0.192}

// workload names one benchmark workload and how to set it up.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64, dir string, sz sizes) (*instance, error)
}

var workloads = []workload{
	{"city-broad", setupCityBroad},
	{"placed-needle", setupPlacedNeedle},
	{"ingest-mixed", setupIngestMixed},
}

// searchOp is one search the closed-loop client issues, with what its
// answer must satisfy.
type searchOp struct {
	dep     *deployment
	queries []core.Query
	// target is the person a single-target search must find (0: none).
	target core.PersonID
	// oracle holds each query's exact answer set (city-broad).
	oracle map[core.QueryID]map[core.PersonID]bool
	// reference is the full-fan-out outcome the routed search must equal
	// (placed-needle).
	reference *dimatch.Outcome
}

// deployment is one running cluster and what each of its stations holds,
// rebuilt by the benchmark from the generated inputs.
type deployment struct {
	cl     *dimatch.Cluster
	opts   dimatch.Options
	length int
	ids    []uint32 // member stations, ascending
	data   map[uint32]map[core.PersonID]pattern.Pattern
	// placed reports whether persons are replica-placed (searches then
	// dedupe replica reports).
	placed bool
}

// instance is one set-up workload: its deployments plus everything the
// benchmark needs to check its answers and to replay it layer by layer.
type instance struct {
	deps []*deployment
	pool []*searchOp
	// prepare computes reference answers once, after the timed set-up.
	prepare func(ctx context.Context) error
	// feed is the open-loop ingest producer (ingest-mixed only).
	feed *feed
	// walPolicy describes the station persistence ("none" without WAL).
	walPolicy string
	closers   []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

// verdict is one operation's correctness outcome.
type verdict struct {
	ok              bool
	found, expected int
}

// check scores a search outcome against the op's expectation.
func (op *searchOp) check(out *dimatch.Outcome) verdict {
	v := verdict{ok: true}
	switch {
	case op.oracle != nil:
		for _, q := range op.queries {
			want := op.oracle[q.ID]
			v.expected += len(want)
			for _, r := range out.PerQuery[q.ID] {
				if want[r.Person] {
					v.found++
				} else {
					v.ok = false // a verified result the oracle rejects
				}
			}
		}
	default:
		v.expected = 1
		for _, r := range out.PerQuery[op.queries[0].ID] {
			if r.Person == op.target {
				v.found = 1
			}
		}
		if v.found == 0 {
			v.ok = false
		}
		if op.reference != nil && !sameResults(op.queries, op.reference, out) {
			v.ok = false
		}
	}
	return v
}

// sameResults reports whether two outcomes rank identically per query.
func sameResults(queries []core.Query, a, b *dimatch.Outcome) bool {
	for _, q := range queries {
		if !sameRanked(a.PerQuery[q.ID], b.PerQuery[q.ID]) {
			return false
		}
	}
	return true
}

func sameRanked(ra, rb []core.Result) bool {
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func sortedIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// setupCityBroad builds the paper's Figure-4 city several times over, one
// cluster per seeded city, so one city's draw of office workers does not set
// a run's figures; searches alternate over the cities.
func setupCityBroad(ctx context.Context, seed uint64, _ string, sz sizes) (*instance, error) {
	in := &instance{walPolicy: "none"}
	batches := make([][]*searchOp, sz.cityCities)
	for k := range batches {
		citySeed := seed*1_000_003 + uint64(k)
		dep, ops, err := buildCity(citySeed, sz)
		if dep != nil {
			in.closers = append(in.closers, func() { _ = dep.cl.Shutdown() })
		}
		if err != nil {
			in.close()
			return nil, err
		}
		in.deps = append(in.deps, dep)
		batches[k] = ops
	}
	for b := 0; b < sz.cityBatches; b++ {
		for _, ops := range batches {
			in.pool = append(in.pool, ops[b])
		}
	}
	in.prepare = func(context.Context) error {
		for _, op := range in.pool {
			op.oracle = make(map[core.QueryID]map[core.PersonID]bool, len(op.queries))
			for _, q := range op.queries {
				exact, err := dimatch.Oracle(op.dep.data, q, 0, 0)
				if err != nil {
					return err
				}
				set := make(map[core.PersonID]bool, len(exact))
				for _, p := range exact {
					set[p] = true
				}
				op.oracle[q.ID] = set
			}
		}
		return nil
	}
	for _, op := range in.pool[:len(in.deps)] { // warm-up: one search per city
		if _, err := op.dep.cl.Search(ctx, op.queries); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// buildCity generates one city, starts its cluster and draws its query
// batches.
func buildCity(seed uint64, sz sizes) (*deployment, []*searchOp, error) {
	cfg := dimatch.DefaultCityConfig()
	cfg.Seed = seed
	cfg.Persons = sz.cityPersons
	cfg.Stations = sz.cityStations
	cfg.Days = cityDays
	cfg.IntervalsPerDay = cityIntervals
	cfg.Noise = 0
	cfg.VolumeLevels = cityVolumeLevels
	cfg.CategoryWeights = figure4Weights
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return nil, nil, err
	}
	data := dimatch.StationData(city)
	opts := dimatch.Options{
		Params: core.Params{
			Bits:      cityFilterBits,
			Hashes:    5,
			Samples:   core.DefaultSamples,
			Epsilon:   0,
			Seed:      seed,
			Tolerance: core.ToleranceScaled,
		},
		MinScore: 0.999,
		Verify:   true,
	}
	cl, err := dimatch.NewCluster(opts, data)
	if err != nil {
		return nil, nil, err
	}
	dep := &deployment{cl: cl, opts: opts, length: cl.PatternLength(), data: data}
	for id := range data {
		dep.ids = append(dep.ids, id)
	}
	sort.Slice(dep.ids, func(i, j int) bool { return dep.ids[i] < dep.ids[j] })

	refs := cityReferences(city, seed)
	if len(refs) < sz.cityBatches*cityBatch {
		return dep, nil, fmt.Errorf("city-broad: %d office workers, want %d", len(refs), sz.cityBatches*cityBatch)
	}
	ops := make([]*searchOp, sz.cityBatches)
	for b := range ops {
		ops[b] = &searchOp{dep: dep}
		for i, p := range refs[b*cityBatch : (b+1)*cityBatch] {
			ops[b].queries = append(ops[b].queries, dimatch.QueryFromPerson(city, dimatch.QueryID(i+1), p))
		}
	}
	return dep, ops, nil
}

// cityReferences returns the office workers to query, in a seeded order:
// clean exemplars (role anchors on distinct stations) first.
func cityReferences(city *dimatch.City, seed uint64) []dimatch.PersonID {
	var clean, merged []dimatch.PersonID
	for _, id := range city.PersonsInCategory(dimatch.OfficeWorker) {
		p, err := city.PersonByID(id)
		if err != nil {
			continue
		}
		if len(city.LocalsOf(id)) == len(p.Anchors) {
			clean = append(clean, dimatch.PersonID(id))
		} else {
			merged = append(merged, dimatch.PersonID(id))
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	rng.Shuffle(len(merged), func(i, j int) { merged[i], merged[j] = merged[j], merged[i] })
	return append(clean, merged...)
}

// placedParams are the search knobs of both placement-first workloads:
// auto-sized, position-salted filters over ε=1 bands.
func placedParams(seed uint64) core.Params {
	return core.Params{
		Hashes:         5,
		Samples:        8,
		Epsilon:        1,
		Seed:           seed,
		PositionSalted: true,
	}
}

// randomPattern draws one placed pattern; it is never all-zero.
func randomPattern(rng *rand.Rand) pattern.Pattern {
	p := make(pattern.Pattern, placedLength)
	for i := range p {
		p[i] = rng.Int63n(placedMax)
	}
	p[0]++
	return p
}

// population draws persons 1..n with seeded random patterns.
func population(rng *rand.Rand, n int) map[core.PersonID]pattern.Pattern {
	pop := make(map[core.PersonID]pattern.Pattern, n)
	for p := 1; p <= n; p++ {
		pop[core.PersonID(p)] = randomPattern(rng)
	}
	return pop
}

// placedData is what HRW placement puts on each station.
func placedData(pop map[core.PersonID]pattern.Pattern, ids []uint32) map[uint32]map[core.PersonID]pattern.Pattern {
	data := make(map[uint32]map[core.PersonID]pattern.Pattern, len(ids))
	for _, id := range ids {
		data[id] = make(map[core.PersonID]pattern.Pattern)
	}
	for p, pat := range pop {
		for _, sid := range placement.Pick(p, ids, replication) {
			data[sid][p] = pat
		}
	}
	return data
}

func singleQuery(pat pattern.Pattern) []core.Query {
	return []core.Query{{ID: 1, Locals: []pattern.Pattern{pat}}}
}

// setupPlacedNeedle places random patterns on empty stations.
func setupPlacedNeedle(ctx context.Context, seed uint64, _ string, sz sizes) (*instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	pop := population(rng, sz.needlePersons)
	opts := dimatch.Options{Params: placedParams(seed), MinScore: 0.9, Verify: true}
	ids := sortedIDs(sz.needleStations)
	cl, err := dimatch.NewEmptyCluster(opts, ids, placedLength)
	if err != nil {
		return nil, err
	}
	dep := &deployment{cl: cl, opts: opts, length: placedLength, ids: ids, placed: true}
	in := &instance{deps: []*deployment{dep}, walPolicy: "none"}
	in.closers = append(in.closers, func() { _ = cl.Shutdown() })
	if err := cl.Place(ctx, pop, dimatch.WithReplication(replication)); err != nil {
		in.close()
		return nil, err
	}
	dep.data = placedData(pop, ids)
	for i := 0; i < sz.needlePool; i++ {
		p := core.PersonID(1 + rng.Intn(sz.needlePersons))
		in.pool = append(in.pool, &searchOp{dep: dep, queries: singleQuery(pop[p]), target: p})
	}
	in.prepare = func(ctx context.Context) error {
		for _, op := range in.pool {
			ref, err := cl.Search(ctx, op.queries, dimatch.WithRouting(dimatch.RoutingFull))
			if err != nil {
				return err
			}
			op.reference = ref
		}
		return nil
	}
	if _, err := cl.Search(ctx, in.pool[0].queries); err != nil { // warm-up
		in.close()
		return nil, err
	}
	return in, nil
}

// setupIngestMixed opens WAL-backed stations and places the population.
func setupIngestMixed(ctx context.Context, seed uint64, dir string, sz sizes) (*instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	pop := population(rng, sz.ingestPersons)
	opts := dimatch.Options{Params: placedParams(seed), MinScore: 0.9}
	ids := sortedIDs(sz.ingestStations)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stores := make(map[uint32]dimatch.Store, len(ids))
	for _, id := range ids {
		st, err := dimatch.OpenWALStore(filepath.Join(dir, fmt.Sprintf("station-%03d", id)), dimatch.WALOptions{})
		if err != nil {
			for _, s := range stores {
				_ = s.Close()
			}
			return nil, err
		}
		stores[id] = st
	}
	cl, err := dimatch.NewStoredCluster(opts, stores, placedLength)
	if err != nil {
		for _, s := range stores {
			_ = s.Close()
		}
		return nil, err
	}
	dep := &deployment{cl: cl, opts: opts, length: placedLength, ids: ids, placed: true}
	in := &instance{deps: []*deployment{dep}, walPolicy: "fsync every appended batch (WALOptions{})"}
	// The WAL directory is removed with the run's directory, after the
	// result is printed.
	in.closers = append(in.closers, func() { _ = cl.Shutdown() })
	if err := cl.Place(ctx, pop, dimatch.WithReplication(replication)); err != nil {
		in.close()
		return nil, err
	}
	dep.data = placedData(pop, ids)
	// Persons 1..sz.ingestHot are the hot set the producer rewrites; searches
	// target the cold rest, whose patterns never change.
	for i := 0; i < sz.ingestPool; i++ {
		p := core.PersonID(sz.ingestHot + 1 + rng.Intn(sz.ingestPersons-sz.ingestHot))
		in.pool = append(in.pool, &searchOp{dep: dep, queries: singleQuery(pop[p]), target: p})
	}
	in.feed = newFeed(seed, pop, sz.ingestHot, sz.ingestBatch)
	in.prepare = func(context.Context) error { return nil }
	if _, err := cl.Search(ctx, in.pool[0].queries); err != nil { // warm-up
		in.close()
		return nil, err
	}
	return in, nil
}
