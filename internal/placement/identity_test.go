package placement

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// Byte-identity — the jplace document is the same bytes under every thread
// count, tile shape, memory regime, block size, replacement strategy, spill
// policy, duplicate folding, chunk size, entry point and GOMAXPROCS — is stated
// once: identityVariants is the table, runIdentity the driver, placeJplace
// the one way a run becomes bytes. A variant names the regime it means to run
// in and the driver fails when the planner or the slot manager disagrees, so
// no row passes by silently collapsing into another. Adding a configuration
// to the sweep is one line in the table.

// memRegime is the memory axis of the table: how the ceiling is derived and
// which plan the variant declares it must produce.
type memRegime string

const (
	memFull         memRegime = ""               // no ceiling: AMC off, lookup table built
	memNoLookup     memRegime = "full-nolookup"  // no ceiling, DisableLookup
	memForceAMC     memRegime = "force-amc"      // no ceiling, slot manager over a full-size pool
	memAMCLookup    memRegime = "amc-lookup"     // ceiling keeps the lookup table and ~40% of the optional slots
	memAMCLookupOff memRegime = "amc-lookup-off" // the same ceiling with DisableLookup
	memAMCNoLookup  memRegime = "amc-nolookup"   // ceiling below the lookup floor, four slots above the minimum
	memFloor        memRegime = "floor"          // the smallest feasible ceiling: the slot pool at the engine's minimum
)

func (m memRegime) amc() bool { return m != memFull && m != memNoLookup }
func (m memRegime) lookup() bool {
	return m == memFull || m == memForceAMC || m == memAMCLookup
}

// pressured regimes hold fewer slots than the tree has inner CLVs, so a run
// must evict.
func (m memRegime) pressured() bool { return m.amc() && m != memForceAMC }

// budget is the ceiling that puts cfg into regime m on fx, from the
// planner's own floors.
func (m memRegime) budget(fx *fixture, cfg Config) int64 {
	pc := PlanConfigFor(fx.part, fx.tr, cfg)
	switch m {
	case memAMCLookup, memAMCLookupOff:
		return memacct.LookupFloorBytes(pc) + int64(pc.InnerCLVs-pc.MinSlots)*2/5*pc.CLVBytes
	case memAMCNoLookup:
		return memacct.MinFeasibleBytes(pc) + 4*pc.CLVBytes
	case memFloor:
		return memacct.MinFeasibleBytes(pc)
	}
	return 0
}

// variant is one row: the fixtures it runs on, its subtest id, and one field
// per axis (zero = the fixture's base configuration).
type variant struct {
	on   string // key of the fixtures that run it
	name string

	threads   int
	tile      int       // the engine's query and branch tile sizes (0 = auto)
	mem       memRegime // declared regime; the ceiling is mem.budget unless maxmem is set
	maxmem    int64     // a literal ceiling, as a user would pass --maxmem; mem is still asserted
	block     int       // BlockSize; the planner must honour it exactly
	strategy  string    // testStrategy name: costage, the cost-only baseline (cost), or the seeded adversary (lru, random)
	spill     string    // core.SpillPolicyByName
	chunk     int
	bayes     bool // --scoring bayes --edpl; the reference is rendered per scoring mode
	batch     bool // PlaceBatch instead of Place
	procs     int  // GOMAXPROCS for the run
	syncSites bool // SyncPrecompute: with threads > 1, across-site CLV updates
	// distinct places each sequence once, an input with nothing to fold, and
	// copies its result to the sequence's other names (withoutDuplicates):
	// the output the engine's dedup fan-out must reproduce.
	distinct bool

	// samePlanAs replaces the engine run by one assertion: block sits above
	// the planner's cap, so this row plans DeepEqual to the named one and is
	// the same run.
	samePlanAs string
}

func (v variant) config(fx *fixture, base Config) Config {
	cfg := base
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&cfg.Threads, v.threads)
	set(&cfg.BlockSize, v.block)
	set(&cfg.ChunkSize, v.chunk)
	if v.strategy != "" {
		cfg.Strategy = testStrategy(v.strategy)
	}
	cfg.SpillPolicy = core.SpillPolicyByName(v.spill)
	if v.bayes {
		cfg.Scoring, cfg.EDPL = ScoringBayes, true
	}
	cfg.SyncPrecompute = v.syncSites
	cfg.ForceAMC = v.mem == memForceAMC
	cfg.DisableLookup = v.mem == memNoLookup || v.mem == memAMCLookupOff
	if cfg.MaxMem = v.maxmem; cfg.MaxMem == 0 {
		cfg.MaxMem = v.mem.budget(fx, cfg)
	}
	return cfg
}

// checkRegime fails when the run was not the one the variant declares.
func (v variant) checkRegime(t *testing.T, f identityFixture, fx *fixture, eng *Engine) {
	t.Helper()
	p, st := eng.Plan(), eng.Stats()
	if p.AMC != v.mem.amc() || p.LookupEnabled != v.mem.lookup() {
		t.Errorf("want regime %q (AMC=%v lookup=%v), planner chose AMC=%v lookup=%v",
			v.mem, v.mem.amc(), v.mem.lookup(), p.AMC, p.LookupEnabled)
	}
	if v.block != 0 && p.BlockSize != v.block {
		t.Errorf("want block %d, planner chose %d", v.block, p.BlockSize)
	}
	if floor := minEngineSlots(fx.tr); v.mem == memFloor && p.Slots != floor {
		t.Errorf("slots = %d, want the floor %d", p.Slots, floor)
	}
	clv := st.CLVStats
	if v.mem.pressured() && (p.Slots >= fx.tr.NumInnerCLVs() || clv.Evictions == 0) {
		t.Errorf("regime %q ran %d slots for %d CLVs with %d evictions: no memory pressure",
			v.mem, p.Slots, fx.tr.NumInnerCLVs(), clv.Evictions)
	}
	switch {
	case v.spill == "" || v.spill == "discard":
		if clv.SpillWrites != 0 || clv.SpillReloads != 0 {
			t.Errorf("spill policy %q did I/O: %d writes, %d reloads", v.spill, clv.SpillWrites, clv.SpillReloads)
		}
	case v.mem.pressured() && clv.SpillWrites == 0:
		// hybrid spills every victim until its cost model has timings.
		t.Errorf("spill policy %q evicted %d times but never wrote", v.spill, clv.Evictions)
	}
	if n := st.QueriesDeduped; v.distinct && n != 0 || f.dups && !v.distinct && n < len(fx.queries)/2 {
		t.Errorf("distinct input=%v folded %d of %d queries", v.distinct, n, len(fx.queries))
	}
}

// identityFixture is one input the table ranges over: key selects variants,
// name is the subtest level of a key with several fixtures.
type identityFixture struct {
	on, name string
	build    func(t testing.TB) *fixture
	short    func(t testing.TB) *fixture // smaller stand-in under -short
	long     bool                        // no stand-in: skipped under -short
	chunk    int                         // base ChunkSize (0 = keep)
	dups     bool                        // every read appears twice: a run must fold
	base     func() Config               // nil = testConfig
	// fullWidth: the reference derives every phase-2 insertion CLV at full
	// width, and each variant's tallies must show it premasked the same
	// optimizer path.
	fullWidth bool
}

func randomTree(seed int64, n, width, nQueries int) func(testing.TB) *fixture {
	return func(t testing.TB) *fixture { return newFixture(t, seed, n, width, nQueries) }
}

// shaped covers the balanced (worst-case slot bound) and caterpillar
// (best-case) topologies newFixture's random-addition trees never produce.
func shaped(shape string, n int, seed int64) func(testing.TB) *fixture {
	return func(t testing.TB) *fixture {
		var tr *tree.Tree
		var err error
		switch shape {
		case "balanced":
			tr, err = tree.Balanced(n, 0.1)
		case "caterpillar":
			tr, err = tree.Caterpillar(n, 0.1)
		default:
			tr, err = tree.Random(n, 0.12, rand.New(rand.NewSource(seed)))
		}
		if err != nil {
			t.Fatal(err)
		}
		return fixtureFromTree(t, tr, seed, 120, 15)
	}
}

// neotropConfig is epang's defaults at --chunk-size 200: the neotrop rows
// stand for command lines, so they start from what a command line starts from.
func neotropConfig() Config {
	cfg := DefaultConfig()
	cfg.ChunkSize = 200
	return cfg
}

var identityFixtures = []identityFixture{
	{on: "mode", build: randomTree(1, 64, 120, 12)},
	{on: "pipeline", chunk: 4, build: randomTree(25, 16, 120, 14)},
	{on: "tile", chunk: 6, build: randomTree(47, 16, 120, 21)},
	{on: "bayes", build: randomTree(83, 48, 120, 14)},
	{on: "premask", build: premaskFixture, fullWidth: true},
	// Balanced needs a power of two; 64 is where the log2(n)+2 slot floor bites.
	{on: "shapes", name: "random-n16", build: shaped("random", 16, 1016)},
	{on: "shapes", name: "random-n64", build: shaped("random", 64, 1064), long: true},
	{on: "shapes", name: "balanced-n16", build: shaped("balanced", 16, 1016)},
	{on: "shapes", name: "balanced-n64", build: shaped("balanced", 64, 1064), long: true},
	{on: "shapes", name: "caterpillar-n16", build: shaped("caterpillar", 16, 1016)},
	{on: "shapes", name: "caterpillar-n64", build: shaped("caterpillar", 64, 1064), long: true},
	{on: "spill-shapes", name: "random", build: shaped("random", 64, 4064), short: shaped("random", 16, 4016)},
	{on: "spill-shapes", name: "balanced", build: shaped("balanced", 64, 4064), short: shaped("balanced", 16, 4016)},
	{on: "spill-shapes", name: "caterpillar", build: shaped("caterpillar", 64, 4064), short: shaped("caterpillar", 16, 4016)},
	// workload.Neotrop scale 64 seed 9: 48 leaves, 138 inner CLVs, 1,490 reads
	// in 8 chunks; dup2x holds every read twice, the copy renamed.
	{on: "neotrop", base: neotropConfig, long: true, build: func(t testing.TB) *fixture { return neotropFixture(t, false) }},
	{on: "neotrop-dup2x", base: neotropConfig, long: true, dups: true, build: func(t testing.TB) *fixture { return neotropFixture(t, true) }},
}

var neotropShared *fixture

// neotropFixture is workload.Neotrop scale 64 seed 9 as the engine sees it;
// the partition is built once and shared with the duplicated query set.
func neotropFixture(t testing.TB, dup bool) *fixture {
	t.Helper()
	if neotropShared == nil {
		ds, err := workload.Neotrop(64, 9)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := seq.Compress(ds.RefMSA)
		if err != nil {
			t.Fatal(err)
		}
		part, err := phylo.NewPartition(ds.Model, ds.Rates, comp, ds.Tree)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := EncodeQueries(ds.Alphabet, ds.Queries, ds.RefMSA.Width())
		if err != nil {
			t.Fatal(err)
		}
		neotropShared = &fixture{tr: ds.Tree, part: part, msa: ds.RefMSA, queries: queries}
	}
	fx := *neotropShared
	if dup {
		// Each read is followed by its renamed copy: dedup folds within a
		// chunk, so a copy in a later chunk would never meet its original.
		fx.queries = nil
		for _, q := range neotropShared.queries {
			fx.queries = append(fx.queries, q, Query{Name: "dup_" + q.Name, Codes: q.Codes})
		}
	}
	return &fx
}

// fixtureFromTree builds the reference alignment, partition and queries for
// an already-generated topology.
func fixtureFromTree(t testing.TB, tr *tree.Tree, seed int64, width, nQueries int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, width)
		for i := range data {
			data[i] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := model.GammaRates(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(model.JC69(), rates, comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	var qseqs []seq.Sequence
	for i := 0; i < nQueries; i++ {
		src := seqs[rng.Intn(len(seqs))]
		data := append([]byte(nil), src.Data...)
		for m := 0; m < width/15; m++ {
			data[rng.Intn(width)] = "ACGT"[rng.Intn(4)]
		}
		qseqs = append(qseqs, seq.Sequence{Label: fmt.Sprintf("dq%03d", i), Data: data})
	}
	queries, err := EncodeQueries(seq.DNA, qseqs, width)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tr: tr, part: part, msa: msa, queries: queries}
}

const neotropAMC, neotropNoLookup = 2 << 20, 900 << 10 // --maxmem 2M: 70 of 138 slots with the lookup table; 900K: 7 slots without it

// identityVariants is the table. The neotrop ids name the epang flag sets the
// rows stand for (CHANGES.md, PR 24, lists them).
var identityVariants = func() []variant {
	vs := []variant{
		{on: "mode", name: "amc-with-lookup", mem: memAMCLookup},
		{on: "mode", name: "amc-no-lookup", mem: memAMCNoLookup},
		{on: "mode", name: "no-lookup-full-mem", mem: memNoLookup},
		{on: "mode", name: "force-amc-maxmem", mem: memForceAMC},
		{on: "mode", name: "threads-4", threads: 4},
		{on: "mode", name: "amc-threads-4", mem: memAMCLookup, threads: 4},
		{on: "mode", name: "amc-random-strategy", mem: memAMCLookup, strategy: "random"},
		{on: "mode", name: "amc-sync-siteworkers", mem: memAMCLookup, syncSites: true, threads: 4},
		{on: "mode", name: "small-blocks", mem: memAMCLookup, block: 3},
		{on: "mode", name: "small-chunks", chunk: 5},

		{on: "bayes", name: "threads-8", bayes: true, threads: 8},
		{on: "bayes", name: "tiles-1x1", bayes: true, tile: 1},
		{on: "bayes", name: "tiles-64", bayes: true, tile: 64},
		{on: "bayes", name: "amc-with-lookup", bayes: true, mem: memAMCLookup},
		{on: "bayes", name: "amc-no-lookup", bayes: true, mem: memAMCNoLookup},
		{on: "bayes", name: "amc-threads-8", bayes: true, mem: memAMCLookup, threads: 8},
		{on: "bayes", name: "amc-lru", bayes: true, mem: memAMCLookup, strategy: "lru"},
		{on: "bayes", name: "spill-discard", bayes: true, mem: memAMCNoLookup, spill: "discard"},
		{on: "bayes", name: "spill-spill", bayes: true, mem: memAMCNoLookup, spill: "spill"},
		{on: "bayes", name: "spill-hybrid", bayes: true, mem: memAMCNoLookup, spill: "hybrid"},
		{on: "bayes", name: "small-chunks", bayes: true, chunk: 3},
		{on: "bayes", name: "place-batch", bayes: true, chunk: 5, batch: true},
		{on: "bayes", name: "gomaxprocs-1", bayes: true, procs: 1, mem: memAMCLookup, threads: 8},
		{on: "bayes", name: "gomaxprocs-8", bayes: true, procs: 8, mem: memAMCLookup, threads: 8},

		{on: "premask", name: "ml"},
		{on: "premask", name: "ml-threads-8", threads: 8},
		{on: "premask", name: "ml-amc-no-lookup", mem: memAMCNoLookup},
		{on: "premask", name: "bayes", bayes: true},
		{on: "premask", name: "bayes-threads-8", bayes: true, threads: 8},
		{on: "premask", name: "gomaxprocs-1", procs: 1, bayes: true, threads: 8},
		{on: "premask", name: "gomaxprocs-8", procs: 8, threads: 8},

		{on: "pipeline", name: "gomaxprocs-1", procs: 1, mem: memAMCLookup, threads: 8},
		{on: "pipeline", name: "gomaxprocs-2", procs: 2, mem: memAMCLookup, threads: 8, batch: true},
		{on: "pipeline", name: "gomaxprocs-8", procs: 8, mem: memAMCLookup, threads: 8},

		{on: "neotrop", name: "ref", threads: 4},
		{on: "neotrop", name: "spill-discard", mem: memAMCLookup, maxmem: neotropAMC, spill: "discard"},
		{on: "neotrop", name: "spill-spill", mem: memAMCLookup, maxmem: neotropAMC, spill: "spill"},
		{on: "neotrop", name: "spill-hybrid", mem: memAMCLookup, maxmem: neotropAMC, spill: "hybrid"},
		// The planner caps this fixture's block at 138/24 = 5 (the default 64
		// included): 2 and 4 are runs of their own, 8 and 128 are not.
		{on: "neotrop", name: "amc-block2", mem: memAMCLookup, maxmem: neotropAMC, block: 2},
		{on: "neotrop", name: "amc-block4", mem: memAMCLookup, maxmem: neotropAMC, block: 4},
		{on: "neotrop", name: "amc-block8", mem: memAMCLookup, maxmem: neotropAMC, block: 8, samePlanAs: "spill-discard"},
		{on: "neotrop", name: "amc-block128", mem: memAMCLookup, maxmem: neotropAMC, block: 128, threads: 4, samePlanAs: "spill-discard"},
		{on: "neotrop", name: "spill-hybrid-floor-block8", mem: memAMCNoLookup, maxmem: neotropNoLookup, block: 5, spill: "hybrid"},
		{on: "neotrop", name: "bayes-ref", bayes: true, threads: 4},
		{on: "neotrop", name: "bayes-t1", bayes: true},
		{on: "neotrop", name: "bayes-t8", bayes: true, threads: 8},
		{on: "neotrop", name: "bayes-t1-amc", bayes: true, mem: memAMCLookup, maxmem: neotropAMC},
		{on: "neotrop", name: "bayes-t8-amc", bayes: true, threads: 8, mem: memAMCLookup, maxmem: neotropAMC},
		{on: "neotrop", name: "bayes-tile1-t8", bayes: true, tile: 1, threads: 8},
		{on: "neotrop", name: "bayes-spill-spill", bayes: true, mem: memAMCLookup, maxmem: neotropAMC, spill: "spill"},
		{on: "neotrop", name: "bayes-spill-hybrid", bayes: true, mem: memAMCLookup, maxmem: neotropAMC, spill: "hybrid"},
		// The -off rows place each read once, without its copy, and give the
		// copy the read's result: the output the fold must reproduce.
		{on: "neotrop-dup2x", name: "dedup-off", threads: 4, distinct: true},
		{on: "neotrop-dup2x", name: "dedup-on", threads: 4},
		{on: "neotrop-dup2x", name: "bayes-dedup-off", bayes: true, threads: 4, distinct: true},
		{on: "neotrop-dup2x", name: "bayes-dedup-on", bayes: true, threads: 4},
	}
	// The lattices: every combination is a row.
	for _, strat := range []string{"cost", "costage", "lru", "random"} {
		vs = append(vs, variant{on: "shapes", name: strat, mem: memFloor, strategy: strat})
		for _, pol := range []string{"discard", "spill", "hybrid"} {
			if strat != "random" {
				vs = append(vs, variant{on: "spill-shapes", name: strat + "-" + pol, mem: memFloor, strategy: strat, spill: pol})
			}
		}
	}
	for _, threads := range []int{1, 8} {
		for _, amc := range []memRegime{memFull, memAMCLookup} {
			suffix := fmt.Sprintf("-t%d", threads)
			if amc != memFull {
				suffix += "-amc"
			}
			vs = append(vs, variant{on: "pipeline", name: "stream" + suffix, threads: threads, mem: amc})
			noLookup := map[memRegime]memRegime{memFull: memNoLookup, memAMCLookup: memAMCLookupOff}[amc]
			for _, tile := range []int{1, 3, 64} {
				name := fmt.Sprintf("tile%d%s", tile, suffix)
				vs = append(vs,
					variant{on: "tile", name: name, tile: tile, threads: threads, mem: amc},
					variant{on: "tile", name: name + "-nolookup", tile: tile, threads: threads, mem: noLookup})
			}
			for _, tile := range []int{1, 8, 64} {
				v := variant{on: "neotrop", name: fmt.Sprintf("tile%d%s", tile, suffix), tile: tile, threads: threads, mem: amc}
				if amc != memFull {
					v.maxmem = neotropAMC
				}
				vs = append(vs, v)
			}
		}
	}
	return vs
}()

// renderJplace serializes placements as the wire-format jplace document, the
// columns chosen by cfg's scoring mode — the bytes every identity comparison
// diffs.
func renderJplace(t testing.TB, fx *fixture, cfg Config, queries []jplace.Placements) []byte {
	t.Helper()
	doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: queries, Invocation: "test"}
	if cfg.bayes() {
		doc.Fields = jplace.FieldsBayes
	}
	var buf bytes.Buffer
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameJplace reports whether two placement lists render to the same bytes.
func sameJplace(t testing.TB, fx *fixture, cfg Config, a, b []jplace.Placements) bool {
	t.Helper()
	return bytes.Equal(renderJplace(t, fx, cfg, a), renderJplace(t, fx, cfg, b))
}

// placeJplace is the one render helper: an engine under cfg, its phase-1
// tiles v.tile × v.tile when that is nonzero, places the fixture's queries
// through Place, or PlaceBatch when v.batch is set (both run PlaceStream's
// chunk loop), each sequence once when v.distinct is set, and the result is
// rendered. The caller closes the engine.
func placeJplace(t testing.TB, fx *fixture, cfg Config, v variant, fullWidth bool) ([]byte, *Engine) {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.tile != 0 {
		eng.tileQ, eng.tileB = v.tile, v.tile
	}
	eng.fullWidthRuns = fullWidth
	place := func(qs []Query) []jplace.Placements {
		if v.batch {
			placed, err := eng.PlaceBatch(context.Background(), qs)
			if err != nil {
				t.Fatal(err)
			}
			return placed
		}
		res, err := eng.Place(qs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Queries
	}
	var placed []jplace.Placements
	if v.distinct {
		placed = withoutDuplicates(fx.queries, place)
	} else {
		placed = place(fx.queries)
	}
	return renderJplace(t, fx, cfg, placed), eng
}

// identityRef is a fixture's reference: the document and run statistics of
// its base configuration under the one axis that chooses the output, the
// scoring mode.
type identityRef struct {
	doc   []byte
	stats RunStats
}

// runIdentity runs every variant of the keyed fixtures as a subtest: render,
// compare with the fixture's reference, check the declared regime, run the
// engine's closing audit.
func runIdentity(t *testing.T, on ...string) {
	for _, f := range identityFixtures {
		if !slices.Contains(on, f.on) {
			continue
		}
		body := func(t *testing.T) {
			build, base := f.build, testConfig()
			if testing.Short() && f.long {
				t.Skip("long fixture")
			} else if testing.Short() && f.short != nil {
				build = f.short
			}
			if f.base != nil {
				base = f.base()
			}
			if f.chunk != 0 {
				base.ChunkSize = f.chunk
			}
			fx := build(t)
			refs := map[variant]identityRef{}
			for _, v := range identityVariants {
				if v.on == f.on {
					t.Run(v.name, func(t *testing.T) { v.run(t, f, fx, base, refs) })
				}
			}
		}
		if f.name == "" {
			body(t)
		} else {
			t.Run(f.name, body)
		}
	}
}

func (v variant) run(t *testing.T, f identityFixture, fx *fixture, base Config, refs map[variant]identityRef) {
	cfg := v.config(fx, base)
	if v.samePlanAs != "" {
		i := slices.IndexFunc(identityVariants, func(o variant) bool { return o.on == v.on && o.name == v.samePlanAs })
		if i < 0 {
			t.Fatalf("no variant %q on %q", v.samePlanAs, v.on)
		}
		got, err := PlanFor(fx.part, fx.tr, cfg)
		want, werr := PlanFor(fx.part, fx.tr, identityVariants[i].config(fx, base))
		if err != nil || werr != nil {
			t.Fatal(err, werr)
		}
		if got.BlockSize >= v.block || !reflect.DeepEqual(got, want) {
			t.Errorf("block %d is not above the planner's cap: plan %+v, %s plans %+v", v.block, got, v.samePlanAs, want)
		}
		return
	}
	if v.procs != 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
	}
	rv := variant{bayes: v.bayes}
	ref, ok := refs[rv]
	if !ok {
		doc, eng := placeJplace(t, fx, rv.config(fx, base), rv, f.fullWidth)
		rv.checkRegime(t, f, fx, eng)
		ref = identityRef{doc, eng.Stats()}
		if err := eng.Close(); err != nil {
			t.Fatalf("reference audit: %v", err)
		}
		refs[rv] = ref
	}
	got, eng := placeJplace(t, fx, cfg, v, false)
	if !bytes.Equal(got, ref.doc) {
		t.Errorf("jplace differs from the reference (%d vs %d bytes)", len(got), len(ref.doc))
	}
	v.checkRegime(t, f, fx, eng)
	if f.fullWidth {
		// The pattern tallies prove the two runs differed in the work they did
		// and in nothing else.
		st, rs := eng.Stats(), ref.stats
		if st.Phase2Evals != rs.Phase2Evals || st.Phase2CLVUpdates != rs.Phase2CLVUpdates || st.Phase2CLVUpdates == 0 {
			t.Errorf("optimizer paths diverged: evals %d vs %d, CLV updates %d vs %d",
				st.Phase2Evals, rs.Phase2Evals, st.Phase2CLVUpdates, rs.Phase2CLVUpdates)
		}
		if rs.Phase2PatternsUpdated != rs.Phase2PatternsFull {
			t.Errorf("full-width reference updated %d of %d patterns", rs.Phase2PatternsUpdated, rs.Phase2PatternsFull)
		}
		if st.Phase2PatternsUpdated >= st.Phase2PatternsFull {
			t.Errorf("premasked run updated %d of %d patterns", st.Phase2PatternsUpdated, st.Phase2PatternsFull)
		}
	}
	if err := eng.Close(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// One entry point per fixture key: `go test -run` and the recorded test ids
// address a suite by these names.
func TestModeEquivalence(t *testing.T)           { runIdentity(t, "mode") }
func TestPipelineByteIdentity(t *testing.T)      { runIdentity(t, "pipeline") }
func TestTileByteIdentity(t *testing.T)          { runIdentity(t, "tile") }
func TestBayesByteIdentity(t *testing.T)         { runIdentity(t, "bayes") }
func TestPremaskByteIdentity(t *testing.T)       { runIdentity(t, "premask") }
func TestDifferentialFullVsAMC(t *testing.T)     { runIdentity(t, "shapes") }
func TestDifferentialSpillPolicies(t *testing.T) { runIdentity(t, "spill-shapes") }
func TestByteIdentity(t *testing.T)              { runIdentity(t, "neotrop", "neotrop-dup2x") }
