package placement

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/seq"
)

// premaskFixture replaces the fixture's queries with reads shaped to stress
// the premask run list: fragments of a leaf sequence at the alignment's first
// and last columns, single-site reads at both ends and in the middle,
// two-island reads, a full-length read and an all-gap read.
func premaskFixture(t testing.TB) *fixture {
	t.Helper()
	fx := newFixture(t, 97, 40, 120, 1)
	width := fx.msa.Width()
	rng := rand.New(rand.NewSource(5))
	type span struct{ lo, hi int }
	shapes := [][]span{
		{{0, 25}},                           // touches the first column
		{{width - 25, width}},               // touches the last column
		{{0, 1}},                            // single site, first column
		{{width - 1, width}},                // single site, last column
		{{width / 2, width/2 + 1}},          // single site, interior
		{{10, 30}, {70, 95}},                // two islands
		{{0, 1}, {width - 1, width}},        // both end columns only
		{{30, 80}},                          // interior fragment
		{{0, width}},                        // full length
		{},                                  // all gaps
		{{5, 6}, {7, 8}, {9, 10}, {50, 90}}, // alternating single-site runs
	}
	var qseqs []seq.Sequence
	for i, spans := range shapes {
		src := fx.msa.Sequences[rng.Intn(fx.msa.Len())].Data
		data := bytes.Repeat([]byte{'-'}, width)
		for _, sp := range spans {
			copy(data[sp.lo:sp.hi], src[sp.lo:sp.hi])
		}
		for _, sp := range spans {
			if sp.hi-sp.lo > 10 {
				data[sp.lo+rng.Intn(sp.hi-sp.lo)] = "ACGT"[rng.Intn(4)]
			}
		}
		qseqs = append(qseqs, seq.Sequence{Label: fmt.Sprintf("read%02d", i), Data: data})
	}
	queries, err := EncodeQueries(seq.DNA, qseqs, width)
	if err != nil {
		t.Fatal(err)
	}
	fx.queries = queries
	return fx
}

// TestPhase2CountersTrackCoverage: the updated/full pattern ratio is the
// mean coverage of the scored candidates' reads — 1 for full-length queries,
// the fragment share for fragments — and a contiguous read costs one premask
// run per insertion-CLV update.
func TestPhase2CountersTrackCoverage(t *testing.T) {
	fx := newFixture(t, 99, 24, 100, 12)
	width := fx.msa.Width()
	gap := seq.DNA.GapMask()
	for _, tc := range []struct {
		name     string
		coverage float64
	}{{"full-length", 1}, {"fragments", 0.35}} {
		t.Run(tc.name, func(t *testing.T) {
			keep := int(math.Round(tc.coverage * float64(width)))
			queries := make([]Query, len(fx.queries))
			for i, q := range fx.queries {
				codes := append([]uint32(nil), q.Codes...)
				lo := i % (width - keep + 1)
				for site := range codes {
					if codes[site] == gap {
						codes[site] = 1 // newFixture's gap run: make the read gap-free first
					}
					if site < lo || site >= lo+keep {
						codes[site] = gap
					}
				}
				queries[i] = Query{Name: q.Name, Codes: codes}
			}
			cfg := testConfig()
			cfg.Threads = 3
			eng, err := New(fx.part, fx.tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.PlaceBatch(context.Background(), queries); err != nil {
				t.Fatal(err)
			}
			rs := eng.Stats()
			if rs.Phase2Evals == 0 || rs.Phase2CLVUpdates == 0 || rs.Phase2Evals <= rs.Phase2CLVUpdates {
				t.Fatalf("implausible unit costs: %d evals, %d CLV updates", rs.Phase2Evals, rs.Phase2CLVUpdates)
			}
			// No two alignment columns of this fixture are equal, so a read's
			// pattern share is its site share, and its one window of sites is
			// one premask run of patterns numbered in site order.
			if got := float64(rs.Phase2PatternsUpdated) / float64(rs.Phase2PatternsFull); math.Abs(got-tc.coverage) > 0.005 {
				t.Errorf("patterns updated/full = %.3f, want the coverage %.2f", got, tc.coverage)
			}
			if rs.Phase2Runs != rs.Phase2CLVUpdates {
				t.Errorf("%d premask runs over %d insertion-CLV updates, want one run each", rs.Phase2Runs, rs.Phase2CLVUpdates)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoolUtilizationBounded: busy time is divided by the goroutines that
// can be inside pool chunks — the workers and the submitter — so the share
// stays in (0, 1] at every thread count and memory mode.
func TestPoolUtilizationBounded(t *testing.T) {
	fx := newFixture(t, 101, 32, 100, 20)
	for _, tc := range []struct {
		threads      int
		amc          bool
		participants int
	}{
		{1, false, 1}, {2, false, 3}, {4, false, 5},
		{1, true, 1}, {2, true, 3}, {4, true, 5},
	} {
		t.Run(fmt.Sprintf("threads=%d/amc=%v", tc.threads, tc.amc), func(t *testing.T) {
			cfg := testConfig()
			cfg.Threads = tc.threads
			if tc.amc {
				cfg.MaxMem = tightMaxMem(t, fx, cfg, false)
			}
			_, eng := placeWith(t, fx, cfg)
			st := eng.Stats()
			if st.PoolParticipants != tc.participants {
				t.Errorf("PoolParticipants = %d, want %d", st.PoolParticipants, tc.participants)
			}
			if u := st.PoolUtilization(); !(u > 0 && u <= 1) {
				t.Errorf("PoolUtilization = %.3f (busy %v over %v wall × %d), want in (0, 1]",
					u, st.PoolBusy, st.PlaceWall, st.PoolParticipants)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if u := (RunStats{}).PoolUtilization(); u != 0 {
		t.Errorf("zero-value PoolUtilization = %v, want 0", u)
	}
}

// TestSteadyStateAllocations guards the allocation-free hot paths. Scoring
// one candidate — attaching the query (its covered-site list and premask
// runs), pendant and distal Brent loops, the posterior grid — allocates
// nothing once the worker's attachment is warm, and neither does re-encoding a
// chunk's query tiles into the engine's tile buffers. A repeated PlaceBatch
// over the same chunk on the no-lookup path allocates only what scales with
// the returned placements and a fixed cost per branch block (the pool job and
// its closures), nothing per tile, branch or candidate: the pendant matrices
// and the run list live in engine and worker scratch.
func TestSteadyStateAllocations(t *testing.T) {
	fx := newFixture(t, 103, 32, 100, 12)
	for _, scoring := range []ScoringMode{ScoringML, ScoringBayes} {
		cfg := testConfig()
		cfg.Scoring = scoring
		cfg.DisableLookup = true
		eng, err := New(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := eng.PlaceBatch(ctx, fx.queries); err != nil {
			t.Fatal(err)
		}

		var blk *branchBlock
		if err := eng.runBlocks(ctx, eng.branchOrder[:1], func(b *branchBlock) error { blk = b; return nil }); err != nil {
			t.Fatal(err)
		}
		ent, att := &blk.entries[0], eng.watt[0]
		var c candidate
		if a := testing.AllocsPerRun(10, func() { eng.scoreCandidate(ent, fx.queries[0].Codes, &c, att) }); a != 0 {
			t.Errorf("%s: scoreCandidate allocates %v times per call, want 0", scoring, a)
		}
		att.TakeCounts()
		attach := func() { att.Attach(fx.queries[1].Codes, true, false, ent.u, ent.v, ent.m, ent.ms, ent.edge.Length) }
		if a := testing.AllocsPerRun(10, attach); a != 0 {
			t.Errorf("%s: attaching a query allocates %v times, want 0", scoring, a)
		}

		nq := len(fx.queries)
		tq := min(eng.tileQ, 5) // several tiles, the last one partial
		for qt := range eng.buildTiles(fx.queries, tq) {
			if a := testing.AllocsPerRun(10, func() { eng.buildTile(fx.queries, tq, qt, 0) }); a != 0 {
				t.Errorf("%s: rebuilding tile %d's index allocates %v times, want 0", scoring, qt, a)
			}
		}
		blocks := 2 * ((fx.tr.NumBranches() + cfg.BlockSize - 1) / cfg.BlockSize) // phase 1 + at most as many in phase 2
		limit := float64(8*nq + 8*blocks + 40)
		if a := testing.AllocsPerRun(5, func() { eng.PlaceBatch(ctx, fx.queries) }); a > limit {
			t.Errorf("%s: repeated PlaceBatch allocates %v times, want at most %v (%d queries, %d blocks)",
				scoring, a, limit, nq, blocks)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
