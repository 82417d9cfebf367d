package placement

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

type fixture struct {
	tr      *tree.Tree
	part    *phylo.Partition
	msa     *seq.MSA
	queries []Query
}

// newFixture builds a reference tree + alignment and a set of queries
// derived from leaf sequences by point mutations and gap runs.
func newFixture(t testing.TB, seed int64, n, width, nQueries int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(n, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
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
		for m := 0; m < width/20; m++ {
			data[rng.Intn(width)] = "ACGT"[rng.Intn(4)]
		}
		// A gap run to exercise premasking.
		gapStart := rng.Intn(width / 2)
		for g := 0; g < width/10; g++ {
			data[gapStart+g] = '-'
		}
		qseqs = append(qseqs, seq.Sequence{Label: "q" + string(rune('A'+i%26)) + string(rune('0'+i/26)), Data: data})
	}
	queries, err := EncodeQueries(seq.DNA, qseqs, width)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tr: tr, part: part, msa: msa, queries: queries}
}

func placeWith(t testing.TB, fx *fixture, cfg Config, tune ...func(*Engine)) (*Result, *Engine) {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(eng)
	}
	res, err := eng.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

// testConfig returns defaults suited to the small fixtures used here: a
// small branch block so that the double-buffered branch buffers stay well
// below the CLV pool they are meant to save.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BlockSize = 4
	cfg.ChunkSize = 100
	return cfg
}

// tightMaxMem returns a limit that forces AMC, either keeping the lookup
// table with ~40% of the optional CLV slots, or dropping below the lookup
// threshold entirely (the identity table's memAMCLookup / memAMCNoLookup).
func tightMaxMem(_ testing.TB, fx *fixture, cfg Config, keepLookup bool) int64 {
	if keepLookup {
		return memAMCLookup.budget(fx, cfg)
	}
	return memAMCNoLookup.budget(fx, cfg)
}

func TestIdenticalQueryPlacedAtOrigin(t *testing.T) {
	fx := newFixture(t, 3, 16, 200, 1)
	leaf := fx.tr.Leaves()[5]
	row := fx.msa.Index(leaf.Name)
	codes, err := seq.DNA.Encode(fx.msa.Sequences[row].Data)
	if err != nil {
		t.Fatal(err)
	}
	fx.queries = []Query{{Name: "copyof_" + leaf.Name, Codes: codes}}
	res, _ := placeWith(t, fx, DefaultConfig())
	best := res.Queries[0].Placements[0]
	if best.EdgeNum != leaf.Edges[0].ID {
		t.Fatalf("identical query placed on edge %d, want %d", best.EdgeNum, leaf.Edges[0].ID)
	}
	if best.PendantLength > 0.01 {
		t.Fatalf("identical query pendant = %g, want ~0", best.PendantLength)
	}
	if best.LikeWeightRatio < 0.5 {
		t.Fatalf("identical query LWR = %g, want decisive", best.LikeWeightRatio)
	}
}

func TestPlacementOutputInvariants(t *testing.T) {
	fx := newFixture(t, 4, 20, 100, 15)
	res, _ := placeWith(t, fx, DefaultConfig(), func(e *Engine) { e.filterMax = 5 })
	if len(res.Queries) != len(fx.queries) {
		t.Fatalf("got %d results for %d queries", len(res.Queries), len(fx.queries))
	}
	for _, q := range res.Queries {
		if len(q.Placements) == 0 || len(q.Placements) > 5 {
			t.Fatalf("query %s has %d placements", q.Name, len(q.Placements))
		}
		sum := 0.0
		prev := math.Inf(1)
		for _, p := range q.Placements {
			if p.LogLikelihood > prev {
				t.Fatalf("query %s placements not sorted by likelihood", q.Name)
			}
			prev = p.LogLikelihood
			if p.LikeWeightRatio < 0 || p.LikeWeightRatio > 1 {
				t.Fatalf("query %s LWR = %g", q.Name, p.LikeWeightRatio)
			}
			if p.EdgeNum < 0 || p.EdgeNum >= fx.tr.NumBranches() {
				t.Fatalf("query %s edge %d out of range", q.Name, p.EdgeNum)
			}
			if p.PendantLength < 0 || p.DistalLength < 0 {
				t.Fatalf("query %s negative branch lengths", q.Name)
			}
			if p.DistalLength > fx.tr.Edges[p.EdgeNum].Length {
				t.Fatalf("query %s distal %g exceeds branch %g", q.Name, p.DistalLength, fx.tr.Edges[p.EdgeNum].Length)
			}
			sum += p.LikeWeightRatio
		}
		if sum > 1+1e-9 {
			t.Fatalf("query %s LWR sum = %g", q.Name, sum)
		}
	}
}

// TestZeroConfigIsDefault: the zero Config is the EPA-NG default its doc
// promises, by construction — no heuristic a caller has to switch on — so it
// gives DefaultConfig's jplace bytes, on gappy reads that exercise premasking
// and the distal search alike.
func TestZeroConfigIsDefault(t *testing.T) {
	fx := premaskFixture(t)
	zero, engZero := placeWith(t, fx, Config{})
	def, engDef := placeWith(t, fx, DefaultConfig())
	for _, eng := range []*Engine{engZero, engDef} {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !sameJplace(t, fx, DefaultConfig(), zero.Queries, def.Queries) {
		t.Fatal("Config{} and DefaultConfig() place differently")
	}
}

// TestDefaultReplacementRule: DefaultConfig leaves Strategy nil, so the slot
// manager applies core.Config{}'s one rule, CostAge — the rule pplacer.New
// gets the same way. An AMC run evicts exactly as one handed core.CostAge{},
// and not as one handed the cost-only baseline.
func TestDefaultReplacementRule(t *testing.T) {
	if DefaultConfig().Strategy != nil {
		t.Fatal("DefaultConfig sets a Strategy; the nil default belongs to core")
	}
	fx := newFixture(t, 6, 64, 100, 10)
	counts := func(s core.Strategy) [4]uint64 {
		cfg := testConfig()
		cfg.ChunkSize, cfg.Strategy = 4, s
		cfg.MaxMem = tightMaxMem(t, fx, cfg, false)
		_, eng := placeWith(t, fx, cfg)
		st := eng.Stats().CLVStats
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return [4]uint64{st.Hits, st.Recomputes, st.Evictions, st.RecomputeLeafWork}
	}
	def, costage, cost := counts(nil), counts(core.CostAge{}), counts(costOnly{})
	if def[2] == 0 || def != costage {
		t.Fatalf("DefaultConfig counts (hits, recomputes, evictions, leaf work) %v, core.CostAge %v", def, costage)
	}
	if def == cost {
		t.Fatalf("cost-only baseline counts %v equal the default's: the comparison cannot tell rules apart", cost)
	}
}

func TestStatsAndAccounting(t *testing.T) {
	fx := newFixture(t, 6, 64, 100, 10)
	cfg := testConfig()
	cfg.ChunkSize = 4
	cfg.MaxMem = tightMaxMem(t, fx, cfg, true)
	res, eng := placeWith(t, fx, cfg)
	st := eng.Stats()
	if st.QueriesPlaced != 10 || len(res.Queries) != 10 {
		t.Fatalf("QueriesPlaced = %d", st.QueriesPlaced)
	}
	if st.ChunksProcessed != 3 {
		t.Fatalf("ChunksProcessed = %d, want 3", st.ChunksProcessed)
	}
	if !st.AMC || st.Slots <= 0 {
		t.Fatalf("stats AMC/slots: %+v", st)
	}
	if st.CLVStats.Recomputes == 0 {
		t.Fatal("no CLV recomputes recorded under AMC")
	}
	if st.PeakBytes <= 0 || st.PeakBytes > cfg.MaxMem+cfg.MaxMem/10 {
		t.Fatalf("peak accounted bytes %d vs limit %d", st.PeakBytes, cfg.MaxMem)
	}
	if st.ThreadsUsed != cfg.Threads+1 {
		t.Fatalf("ThreadsUsed = %d, want workers+async=%d", st.ThreadsUsed, cfg.Threads+1)
	}
	bd := eng.Accountant().Breakdown()
	for _, cat := range []string{"fixed", "clv-slots", "lookup-table", "branch-buffers"} {
		if bd[cat] <= 0 {
			t.Fatalf("accounting category %q missing: %v", cat, bd)
		}
	}
}

func TestInfeasibleMaxMemErrors(t *testing.T) {
	fx := newFixture(t, 7, 20, 100, 2)
	cfg := DefaultConfig()
	cfg.MaxMem = 1024 // absurdly low
	if _, err := New(fx.part, fx.tr, cfg); err == nil {
		t.Fatal("1 KiB maxmem accepted")
	}
}

func TestQueryWidthValidation(t *testing.T) {
	fx := newFixture(t, 8, 12, 80, 1)
	eng, err := New(fx.part, fx.tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place([]Query{{Name: "bad", Codes: make([]uint32, 7)}}); err == nil {
		t.Fatal("wrong-width query accepted")
	}
	if _, err := EncodeQueries(seq.DNA, []seq.Sequence{{Label: "x", Data: []byte("ACG")}}, 80); err == nil {
		t.Fatal("EncodeQueries accepted wrong width")
	}
}

func TestJplaceEndToEnd(t *testing.T) {
	fx := newFixture(t, 9, 12, 80, 4)
	res, _ := placeWith(t, fx, DefaultConfig())
	doc := &jplace.Document{
		Tree:       jplace.TreeString(fx.tr),
		Queries:    res.Queries,
		Invocation: "test",
	}
	var buf bytes.Buffer
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := jplace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Queries) != 4 {
		t.Fatalf("round trip lost queries: %d", len(back.Queries))
	}
}

func TestLookupSpeedsUpRepeatedChunks(t *testing.T) {
	// Machine-independent version of the paper's ≈15×/23× lookup claim:
	// under AMC, placing with the lookup table needs far fewer CLV
	// recomputations than placing without it, because only phase 2 touches
	// branch CLVs.
	fx := newFixture(t, 10, 64, 100, 20)
	base := testConfig()
	base.ChunkSize = 5

	cfgLookup := base
	cfgLookup.MaxMem = tightMaxMem(t, fx, base, true)
	_, engLookup := placeWith(t, fx, cfgLookup)

	cfgNoLookup := cfgLookup
	cfgNoLookup.DisableLookup = true
	_, engNo := placeWith(t, fx, cfgNoLookup)

	withRec := engLookup.Stats().CLVStats.Recomputes
	withoutRec := engNo.Stats().CLVStats.Recomputes
	if withoutRec <= withRec {
		t.Fatalf("lookup did not reduce recomputes: with=%d without=%d", withRec, withoutRec)
	}
	if float64(withoutRec) < 2*float64(withRec) {
		t.Fatalf("lookup advantage too small: with=%d without=%d", withRec, withoutRec)
	}
}

func TestMoreMemoryFewerRecomputes(t *testing.T) {
	// The paper's central trade-off, in machine-independent units.
	fx := newFixture(t, 11, 64, 100, 10)
	base := testConfig()
	base.ChunkSize = 5
	base.DisableLookup = true // maximize CLV traffic

	eng0, err := New(fx.part, fx.tr, base)
	if err != nil {
		t.Fatal(err)
	}
	full := eng0.Plan().TotalBytes

	// Replacement policies can exhibit Belady-style anomalies, so demand
	// only a clear downward trend (endpoints strictly ordered, neighbours
	// within a slack factor), not strict monotonicity.
	var recs []uint64
	for _, frac := range []float64{0.3, 0.5, 0.8} {
		cfg := base
		cfg.MaxMem = int64(float64(full) * frac)
		eng, err := New(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if _, err := eng.Place(fx.queries); err != nil {
			t.Fatal(err)
		}
		if !eng.Plan().AMC {
			t.Fatalf("frac %g not in AMC mode", frac)
		}
		recs = append(recs, eng.Stats().CLVStats.Recomputes)
	}
	if recs[2] >= recs[0] {
		t.Fatalf("recomputes did not fall with memory: %v", recs)
	}
	for i := 1; i < len(recs); i++ {
		if float64(recs[i]) > 1.3*float64(recs[i-1]) {
			t.Fatalf("recompute anomaly too large between budgets: %v", recs)
		}
	}
}

func TestAminoAcidPlacement(t *testing.T) {
	// Exercise the 20-state path end to end through the engine.
	rng := rand.New(rand.NewSource(71))
	tr, err := tree.Random(10, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	chars := "ARNDCQEGHILKMFPSTWYV"
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, 90)
		for i := range data {
			data[i] = chars[rng.Intn(20)]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(seq.AA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(model.SyntheticAA(), model.UniformRates(), comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Query = a mutated copy of leaf 2's sequence.
	qdata := append([]byte(nil), seqs[2].Data...)
	for m := 0; m < 5; m++ {
		qdata[rng.Intn(len(qdata))] = chars[rng.Intn(20)]
	}
	queries, err := EncodeQueries(seq.AA, []seq.Sequence{{Label: "aaq", Data: qdata}}, 90)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(part, tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Place(queries)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Queries[0].Placements[0]
	origin := tr.LeafByName(seqs[2].Label)
	if best.EdgeNum != origin.Edges[0].ID {
		t.Fatalf("AA query placed on edge %d, want %d", best.EdgeNum, origin.Edges[0].ID)
	}
}

func TestFilterAccThresholdTruncates(t *testing.T) {
	fx := newFixture(t, 72, 20, 100, 5)
	resStrict, _ := placeWith(t, fx, DefaultConfig(), func(e *Engine) {
		e.filterAccThreshold = 0.5 // stop early
	})
	resLoose, _ := placeWith(t, fx, DefaultConfig(), func(e *Engine) {
		e.filterAccThreshold = 0.999999999
		e.filterMax = 30
		e.keepFraction = 0.5
	})
	for i := range resStrict.Queries {
		if len(resStrict.Queries[i].Placements) > len(resLoose.Queries[i].Placements) {
			t.Fatalf("strict filter returned more placements than loose for %s",
				resStrict.Queries[i].Name)
		}
	}
}

func TestMinimalTreePlacement(t *testing.T) {
	// The smallest tree the engine supports: 4 leaves, 2 inner nodes.
	rng := rand.New(rand.NewSource(73))
	tr, err := tree.Random(4, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, 40)
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
	part, err := phylo.NewPartition(model.JC69(), model.UniformRates(), comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := EncodeQueries(seq.DNA, []seq.Sequence{{Label: "q", Data: seqs[0].Data}}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, forceAMC := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.ForceAMC = forceAMC
		eng, err := New(part, tr, cfg)
		if err != nil {
			t.Fatalf("forceAMC=%v: %v", forceAMC, err)
		}
		res, err := eng.Place(queries)
		if err != nil {
			t.Fatalf("forceAMC=%v: %v", forceAMC, err)
		}
		if len(res.Queries[0].Placements) == 0 {
			t.Fatal("no placements on minimal tree")
		}
	}
}
