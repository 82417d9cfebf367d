package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"text/tabwriter"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/workload"
)

// matrixRow is one pinned configuration of TestMatrixGolden.
type matrixRow struct {
	name    string
	threads int
	// ceiling turns the dataset's plan dimensions into --maxmem with the
	// budget arithmetic the engine plans with; nil runs unlimited.
	ceiling func(memacct.PlanConfig) int64
	// amc and lookup are the planner regime the ceiling is meant to select.
	amc, lookup bool
	mut         func(*placement.Config)
	// dup places the 50%-duplicate workload; cached serves it in
	// dup50RequestSize requests through a content-addressed result cache, the
	// serving path's shape.
	dup, cached bool
}

// The AMC ceilings sit just above and just below the lookup-table floor (the
// paper's Fig. 3 runtime cliff). AMC rows run one worker, so every replacement
// decision is a function of the workload alone.
func aboveLookupFloor(pc memacct.PlanConfig) int64 {
	return memacct.LookupFloorBytes(pc) + 8*pc.CLVBytes
}

func slotFloor(pc memacct.PlanConfig) int64 {
	return memacct.MinFeasibleBytes(pc) + 2*pc.CLVBytes
}

func spill(policy string) func(*placement.Config) {
	return func(c *placement.Config) { c.SpillPolicy = core.SpillPolicyByName(policy) }
}

func bayes(c *placement.Config) {
	c.Scoring = placement.ScoringBayes
	c.EDPL = true
}

// dup50Chunk exceeds the whole duplicated workload (2 × 1,490 queries), so the
// shuffle cannot split a duplicate pair across a chunk boundary and the fold
// count is a property of the workload.
func dup50Chunk(c *placement.Config) { c.ChunkSize = 4096 }

const (
	dup50RequestSize = 64       // placed's typical micro-batch scale
	dup50CacheBytes  = 32 << 20 // holds every distinct result: steady-state hits, no eviction
)

var matrixRows = []matrixRow{
	{name: "reference", threads: 4, lookup: true},
	{name: "reference-nolookup", threads: 4,
		mut: func(c *placement.Config) { c.DisableLookup = true }},
	{name: "amc-lookup", threads: 1, ceiling: aboveLookupFloor, amc: true, lookup: true},
	{name: "amc-nolookup", threads: 1, ceiling: slotFloor, amc: true},
	// The spill pair runs amc-nolookup's budget: discard carries the store
	// and never uses it, spill-only is the tier at work. Hybrid, which prices
	// each eviction by the clock, is left to core's policy tests.
	{name: "amc-spill-discard", threads: 1, ceiling: slotFloor, amc: true, mut: spill("discard")},
	{name: "amc-spill-only", threads: 1, ceiling: slotFloor, amc: true, mut: spill("spill")},
	{name: "bayes-reference", threads: 4, lookup: true, mut: bayes},
	{name: "bayes-amc-lookup", threads: 1, ceiling: aboveLookupFloor, amc: true, lookup: true, mut: bayes},
	{name: "dup50-dedup", threads: 4, lookup: true, dup: true, mut: dup50Chunk},
	{name: "dup50-cached", threads: 4, lookup: true, dup: true, cached: true},
}

// duplicateWorkload returns every query once under its own name and once
// renamed, deterministically shuffled so duplicates are interleaved rather
// than adjacent.
func duplicateWorkload(qs []placement.Query, seed int64) []placement.Query {
	out := make([]placement.Query, 0, 2*len(qs))
	for _, q := range qs {
		out = append(out, q, placement.Query{Name: q.Name + "+dup", Codes: q.Codes})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveCached answers each request's cache hits directly and places only the
// misses, as placed does.
func serveCached(eng *placement.Engine, tel *telemetry.Dedup, queries []placement.Query) error {
	cache := placement.NewResultCache(eng.Accountant(), dup50CacheBytes, "matrix", tel)
	defer cache.Purge()
	for off := 0; off < len(queries); off += dup50RequestSize {
		end := off + dup50RequestSize
		if end > len(queries) {
			end = len(queries)
		}
		var misses []placement.Query
		var digests []seq.Digest
		for _, q := range queries[off:end] {
			d := seq.DigestCodes(q.Codes)
			if _, ok := cache.Get(d); !ok {
				misses = append(misses, q)
				digests = append(digests, d)
			}
		}
		res, err := eng.PlaceBatch(context.Background(), misses)
		if err != nil {
			return err
		}
		for i := range res {
			cache.Put(digests[i], res[i].Placements)
		}
	}
	return nil
}

// TestMatrixGolden is the deterministic half of the paper's trade-off as a
// test: the pinned workload under ten configurations, every integer the
// memory side is made of compared with testdata/matrix.golden — the planner's
// regime and bytes, the accounted peak, the slot manager's evictions,
// recomputes and leaf work, the dedup and cache counts, and the number of
// block-kernel calls phase 1 issued (the count the tiled kernels cut; the
// time it buys is bench/'s to measure). Rows run through PlaceBatch, the
// engine's synchronous session loop, so the accounting sequence — and with it
// the peak — is the same at every thread count. After a change that moves
// these numbers on purpose, paste the printed table over the golden.
func TestMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("places the pinned workload ten times")
	}
	const seed = 9
	ds, err := workload.Neotrop(64, seed)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(ds)
	if err != nil {
		t.Fatal(err)
	}
	dupQueries := duplicateWorkload(prep.Queries, seed)

	var got strings.Builder
	tw := tabwriter.NewWriter(&got, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tamc\tlookup\tslots\tplanned_bytes\tpeak_bytes\tevictions\trecomputes\trecompute_leaf_work\t"+
		"queries_distinct\tqueries_deduped\tcandidates_integrated\tblock_kernel_calls\tcache_hits\tcache_misses")
	leafWork := map[string]uint64{}
	for _, row := range matrixRows {
		cfg := placement.DefaultConfig()
		cfg.ChunkSize = 200
		cfg.Threads = row.threads
		if row.mut != nil {
			row.mut(&cfg)
		}
		if row.ceiling != nil {
			cfg.MaxMem = row.ceiling(prep.PlanConfigFor(cfg))
		}
		sink := telemetry.NewSink()
		cfg.Telemetry = sink
		queries := prep.Queries
		if row.dup {
			queries = dupQueries
		}

		eng, err := placement.New(prep.Part, prep.Tree, cfg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if row.cached {
			err = serveCached(eng, sink.DedupGroup(), queries)
		} else {
			_, err = eng.PlaceBatch(context.Background(), queries)
		}
		st, plan := eng.Stats(), eng.Plan()
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if plan.AMC != row.amc || plan.LookupEnabled != row.lookup {
			t.Fatalf("%s: planner chose amc=%v lookup=%v, the row pins amc=%v lookup=%v — the ceiling arithmetic drifted",
				row.name, plan.AMC, plan.LookupEnabled, row.amc, row.lookup)
		}

		clv := st.CLVStats
		leafWork[row.name] = clv.RecomputeLeafWork
		fmt.Fprintf(tw, "%s\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.name, plan.AMC, plan.LookupEnabled, plan.Slots, plan.TotalBytes, st.PeakBytes,
			clv.Evictions, clv.Recomputes, clv.RecomputeLeafWork,
			st.QueriesDistinct, st.QueriesDeduped, st.CandidatesIntegrated,
			sink.Kernel.BlockKernelCalls.Load(), sink.Dedup.CacheHits.Load(), sink.Dedup.CacheMisses.Load())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// What the spill tier is for: at the slot floor spilling every victim
	// pays at most two thirds of the discard-only control's recompute leaf
	// work.
	if discard, only := leafWork["amc-spill-discard"], leafWork["amc-spill-only"]; 2*discard < 3*only {
		t.Errorf("spill-only paid %d recompute leaf work against discard's %d, want at most 2/3 of it", only, discard)
	}

	const golden = "testdata/matrix.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("matrix differs from %s:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
