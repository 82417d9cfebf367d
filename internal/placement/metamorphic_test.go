package placement

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// queryPlacementsEqual compares one query's placement list exactly.
func queryPlacementsEqual(a, b jplace.Placements) bool {
	if a.Name != b.Name || len(a.Placements) != len(b.Placements) {
		return false
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			return false
		}
	}
	return true
}

// byName normalizes results to name → placements, the comparison that is
// invariant under request reordering.
func byName(t testing.TB, qs []jplace.Placements) map[string]jplace.Placements {
	t.Helper()
	m := make(map[string]jplace.Placements, len(qs))
	for _, q := range qs {
		if _, dup := m[q.Name]; dup {
			t.Fatalf("duplicate result for %q", q.Name)
		}
		m[q.Name] = q
	}
	return m
}

// assertSameByName fails if any query's placements changed relative to the
// reference map.
func assertSameByName(t *testing.T, ref map[string]jplace.Placements, got []jplace.Placements, label string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(ref))
	}
	for _, q := range got {
		want, ok := ref[q.Name]
		if !ok {
			t.Fatalf("%s: unexpected query %q", label, q.Name)
		}
		if !queryPlacementsEqual(q, want) {
			t.Errorf("%s: placements changed for %q", label, q.Name)
		}
	}
}

// TestMetamorphicQueryOrder: permuting the query order must not change any
// individual query's placement. The same warm engine serves every
// permutation, so the test also proves that engine state carried across
// sessions (slot contents, strategy bookkeeping) never leaks into results —
// the property that makes serving from one resident engine sound.
func TestMetamorphicQueryOrder(t *testing.T) {
	fx := newFixture(t, 41, 24, 100, 18)
	for _, mode := range []string{"full", "amc"} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig()
			if mode == "amc" {
				cfg.MaxMem = tightMaxMem(t, fx, cfg, false)
			}
			res, eng := placeWith(t, fx, cfg)
			defer eng.Close()
			if wantAMC := mode == "amc"; eng.Plan().AMC != wantAMC {
				t.Fatalf("AMC = %v, want %v", eng.Plan().AMC, wantAMC)
			}
			ref := byName(t, res.Queries)

			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(100 + trial)))
				perm := append([]Query(nil), fx.queries...)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				got, err := eng.PlaceBatch(context.Background(), perm)
				if err != nil {
					t.Fatal(err)
				}
				// Order must follow the permuted input...
				for i := range got {
					if got[i].Name != perm[i].Name {
						t.Fatalf("trial %d: result %d is %q, want %q", trial, i, got[i].Name, perm[i].Name)
					}
				}
				// ...and every query's placements must be unchanged.
				assertSameByName(t, ref, got, fmt.Sprintf("trial %d", trial))
			}
		})
	}
}

// TestMetamorphicChunkSize: the chunk boundary is an execution detail; any
// chunk size must give identical placements, full-resident and
// memory-managed alike.
func TestMetamorphicChunkSize(t *testing.T) {
	fx := newFixture(t, 42, 24, 100, 17)
	base := testConfig()
	refRes, refEng := placeWith(t, fx, base)
	ref := byName(t, refRes.Queries)
	if err := refEng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 3, 5, 16, 1000} {
		for _, mode := range []string{"full", "amc"} {
			cfg := testConfig()
			cfg.ChunkSize = chunk
			if mode == "amc" {
				cfg.MaxMem = tightMaxMem(t, fx, cfg, false)
			}
			res, eng := placeWith(t, fx, cfg)
			assertSameByName(t, ref, res.Queries, fmt.Sprintf("chunk=%d %s", chunk, mode))
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMetamorphicBatchBoundaries: slicing the query stream into arbitrary
// PlaceBatch sessions — the composition the micro-batcher produces from
// concurrent requests — must not change any placement.
func TestMetamorphicBatchBoundaries(t *testing.T) {
	fx := newFixture(t, 43, 24, 100, 19)
	res, eng := placeWith(t, fx, testConfig())
	defer eng.Close()
	ref := byName(t, res.Queries)

	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		var got []jplace.Placements
		for off := 0; off < len(fx.queries); {
			sz := 1 + rng.Intn(len(fx.queries)-off)
			out, err := eng.PlaceBatch(context.Background(), fx.queries[off:off+sz])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
			off += sz
		}
		assertSameByName(t, ref, got, fmt.Sprintf("trial %d", trial))
	}
}

// TestMetamorphicBatcherCoalescing: the correctness gate for the
// micro-batcher itself — queries submitted concurrently in random groupings
// and coalesced into shared flushes must each receive exactly the
// placements a solitary run gives them, for several batch-size regimes.
// Every group is submitted while the engine is held, so each regime really
// coalesces: the batch count is the one its MaxBatch implies.
func TestMetamorphicBatcherCoalescing(t *testing.T) {
	fx := newFixture(t, 44, 24, 100, 20)
	res, eng := placeWith(t, fx, testConfig())
	defer eng.Close()
	ref := byName(t, res.Queries)

	for _, maxBatch := range []int{
		1,               // every submission flushes alone
		7,               // partial coalescing at an awkward stride
		1 << 20,         // everything queued behind the hold in one batch
		len(fx.queries), // one full coalesced batch
	} {
		tel := &telemetry.Server{}
		b := NewBatcher(eng, BatcherConfig{MaxBatch: maxBatch, Telemetry: tel})
		rng := rand.New(rand.NewSource(int64(maxBatch)))
		var groups [][]Query
		for off := 0; off < len(fx.queries); {
			sz := 1 + rng.Intn(4)
			if off+sz > len(fx.queries) {
				sz = len(fx.queries) - off
			}
			groups = append(groups, fx.queries[off:off+sz])
			off += sz
		}
		release := holdEngine(t, eng)
		outs := submitQueued(t, b, groups)
		release()
		var got []jplace.Placements
		for range groups {
			oc := <-outs
			if oc.err != nil {
				t.Fatal(oc.err)
			}
			g := groups[oc.group]
			for i := range oc.out {
				if oc.out[i].Name != g[i].Name {
					t.Fatalf("submitter got %q at %d, want %q", oc.out[i].Name, i, g[i].Name)
				}
			}
			got = append(got, oc.out...)
		}
		b.Close()
		assertSameByName(t, ref, got, fmt.Sprintf("maxBatch=%d", maxBatch))
		if n, want := tel.Batches.Load(), uint64(fifoBatches(groups, maxBatch)); n != want {
			t.Errorf("maxBatch=%d: %d batches, want %d", maxBatch, n, want)
		}
	}
}
