package placement

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// duplicated returns the fixture's queries with every query repeated under a
// fresh name, deterministically shuffled. Roughly a 50%-duplicate workload —
// the redundancy profile the dedup layer targets.
func duplicated(fx *fixture, seed int64) []Query {
	qs := make([]Query, 0, 2*len(fx.queries))
	for _, q := range fx.queries {
		qs = append(qs, q)
		qs = append(qs, Query{Name: q.Name + "+dup", Codes: q.Codes})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func placeQueries(t *testing.T, fx *fixture, cfg Config, qs []Query) []jplace.Placements {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	out, err := eng.PlaceBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withoutDuplicates is the reference the dedup tests compare with: place
// only the first query of each sequence in qs, an input with nothing to fold,
// and give every query of qs its sequence's result under its own name. The
// metamorphic suite shows placement does not depend on what else is in a
// batch, so the engine's fan-out must reproduce exactly this.
func withoutDuplicates(qs []Query, place func([]Query) []jplace.Placements) []jplace.Placements {
	first := map[string]int{}
	var distinct []Query
	of := make([]int, len(qs))
	for i, q := range qs {
		key := fmt.Sprint(q.Codes)
		j, ok := first[key]
		if !ok {
			j = len(distinct)
			first[key] = j
			distinct = append(distinct, q)
		}
		of[i] = j
	}
	res := place(distinct)
	out := make([]jplace.Placements, len(qs))
	for i, q := range qs {
		out[i] = res[of[i]]
		out[i].Name = q.Name
	}
	return out
}

// TestDedupInvisible is the core metamorphic property: the result stream of
// a duplicated input is exactly — same order, same values — what placing
// each sequence once gives, across chunk sizes that put duplicates in one
// chunk or split them across chunk boundaries.
func TestDedupInvisible(t *testing.T) {
	fx := newFixture(t, 21, 8, 60, 12)
	qs := duplicated(fx, 1)
	for _, chunk := range []int{3, 7, 100} {
		cfg := testConfig()
		cfg.ChunkSize = chunk
		ref := withoutDuplicates(qs, func(d []Query) []jplace.Placements { return placeQueries(t, fx, cfg, d) })
		got := placeQueries(t, fx, cfg, qs)
		if len(got) != len(ref) {
			t.Fatalf("chunk %d: %d results, want %d", chunk, len(got), len(ref))
		}
		for i := range got {
			if !queryPlacementsEqual(got[i], ref[i]) {
				t.Fatalf("chunk %d: result %d (%s) differs from placing each sequence once", chunk, i, got[i].Name)
			}
		}
	}
}

// TestDedupShuffledInterleavings: however duplicates are interleaved, each
// query's placements match the result of placing each sequence once.
func TestDedupShuffledInterleavings(t *testing.T) {
	fx := newFixture(t, 22, 8, 60, 10)
	cfg := testConfig()
	cfg.ChunkSize = 5
	place := func(qs []Query) []jplace.Placements { return placeQueries(t, fx, cfg, qs) }
	ref := byName(t, withoutDuplicates(duplicated(fx, 0), place))
	for seed := int64(1); seed <= 3; seed++ {
		got := place(duplicated(fx, seed))
		assertSameByName(t, ref, got, fmt.Sprintf("shuffle %d", seed))
	}
}

// TestDedupStats checks the bookkeeping: distinct/deduped counts in RunStats
// and the report's telemetry dedup section.
func TestDedupStats(t *testing.T) {
	fx := newFixture(t, 23, 8, 60, 10)
	qs := duplicated(fx, 1) // 20 queries, 10 distinct
	eng, err := New(fx.part, fx.tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.PlaceBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.QueriesPlaced != 20 || s.QueriesDistinct != 10 || s.QueriesDeduped != 10 {
		t.Fatalf("placed=%d distinct=%d deduped=%d, want 20/10/10",
			s.QueriesPlaced, s.QueriesDistinct, s.QueriesDeduped)
	}
	snap := eng.Report().Telemetry.Dedup
	if snap.QueriesSeen != 20 || snap.QueriesDistinct != 10 || snap.DuplicatesFolded != 10 {
		t.Fatalf("telemetry dedup = %d seen, %d distinct, %d folded", snap.QueriesSeen, snap.QueriesDistinct, snap.DuplicatesFolded)
	}
}

// TestDedupStreamPipelined exercises the pipelined PlaceStream path with
// duplicates straddling chunk boundaries.
func TestDedupStreamPipelined(t *testing.T) {
	fx := newFixture(t, 24, 8, 60, 10)
	qs := duplicated(fx, 2)
	run := func(qs []Query) []jplace.Placements {
		cfg := testConfig()
		cfg.ChunkSize = 4
		cfg.Threads = 2
		eng, err := New(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var out []jplace.Placements
		if _, err := eng.PlaceStream(context.Background(), NewSliceSource(qs), func(p jplace.Placements) error {
			out = append(out, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref, got := withoutDuplicates(qs, run), run(qs)
	if len(got) != len(ref) {
		t.Fatalf("%d results, want %d", len(got), len(ref))
	}
	for i := range got {
		if !queryPlacementsEqual(got[i], ref[i]) {
			t.Fatalf("result %d (%s) differs from placing each sequence once", i, got[i].Name)
		}
	}
}

func TestResultCacheHitAndEviction(t *testing.T) {
	acct := memacct.NewAccountant()
	tel := telemetry.NewSink()
	c := NewResultCache(acct, 2*entryOverheadCost+3*perPlacementCost, "ref", tel.DedupGroup())
	d1 := seq.DigestCodes([]uint32{1})
	d2 := seq.DigestCodes([]uint32{2})
	d3 := seq.DigestCodes([]uint32{3})
	ps := []jplace.Placement{{EdgeNum: 1, LogLikelihood: -5}}

	if _, ok := c.Get(d1); ok {
		t.Fatal("cold cache hit")
	}
	c.Put(d1, ps)
	if got, ok := c.Get(d1); !ok || got[0].EdgeNum != 1 {
		t.Fatalf("get after put = %v, %v", got, ok)
	}
	c.Put(d2, ps)
	c.Get(d1)     // d1 now more recent than d2
	c.Put(d3, ps) // cap forces one eviction → d2 goes
	if _, ok := c.Get(d2); ok {
		t.Fatal("LRU victim survived")
	}
	if _, ok := c.Get(d1); !ok {
		t.Fatal("recently used entry evicted")
	}
	d := &tel.Dedup
	if d.CacheInserts.Load() != 3 || d.CacheEvictions.Load() != 1 {
		t.Fatalf("inserts=%d evictions=%d", d.CacheInserts.Load(), d.CacheEvictions.Load())
	}
	if d.CachedEntries.Load() != 2 || d.CachedBytes.Load() != c.Bytes() {
		t.Fatalf("gauges = %d entries, %d bytes vs cache bytes %d", d.CachedEntries.Load(), d.CachedBytes.Load(), c.Bytes())
	}
	if acct.Breakdown()[resultCacheCategory] != c.Bytes() {
		t.Fatal("accountant and cache disagree on bytes")
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("purge left entries")
	}
	if err := acct.AssertDrained(resultCacheCategory); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheYieldsToBudget: with a tight shared accountant limit, cache
// growth evicts rather than overcommitting, and ReleaseHeadroom frees room
// for admission on demand.
func TestResultCacheYieldsToBudget(t *testing.T) {
	acct := memacct.NewAccountant()
	entry := int64(entryOverheadCost + perPlacementCost)
	acct.SetLimit(3*entry + 100)
	acct.Alloc("other", 100)
	c := NewResultCache(acct, 1<<20, "ref", nil)
	ps := []jplace.Placement{{EdgeNum: 1}}
	for i := uint32(0); i < 10; i++ {
		c.Put(seq.DigestCodes([]uint32{i}), ps)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3 (budget-bounded)", c.Len())
	}
	if err := acct.Err(); err != nil {
		t.Fatalf("cache growth overcommitted: %v", err)
	}
	if !c.ReleaseHeadroom(2 * entry) {
		t.Fatal("ReleaseHeadroom evicted nothing")
	}
	if acct.Headroom() < 2*entry {
		t.Fatalf("headroom = %d, want ≥ %d", acct.Headroom(), 2*entry)
	}
	c.Purge()
	acct.Free("other", 100)
}

func TestResultCacheNilSafe(t *testing.T) {
	var c *ResultCache
	if _, ok := c.Get(seq.Digest{}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(seq.Digest{}, nil)
	c.ReleaseHeadroom(100)
	c.Purge()
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestReferenceKeyScopes(t *testing.T) {
	k := ReferenceKey("(A,B);", "JC69")
	if k != ReferenceKey("(A,B);", "JC69") {
		t.Fatal("reference key not deterministic")
	}
	if k == ReferenceKey("(A,C);", "JC69") || k == ReferenceKey("(A,B);", "GTR") {
		t.Fatal("distinct references share a key")
	}
}

func TestGroupByContent(t *testing.T) {
	a := []uint32{1, 2}
	b := []uint32{3, 4}
	chunk := []Query{
		{Name: "q0", Codes: a},
		{Name: "q1", Codes: b},
		{Name: "q2", Codes: append([]uint32(nil), a...)}, // same content, distinct backing
		{Name: "q3", Codes: a},
	}
	reps, owner := groupByContent(chunk)
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Fatalf("reps = %v", reps)
	}
	want := []int{0, 1, 0, 0}
	for i, o := range owner {
		if o != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}
