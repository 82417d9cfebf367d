package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/placement"
)

// cacheFixture builds a served fixture with a per-tenant result cache of the
// given size (and any extra engine-config tweaks applied).
func cacheFixture(t *testing.T, cacheBytes int64, cfgEdit func(*placement.Config)) *testFixture {
	t.Helper()
	return newTestFixtureCfg(t, fixtureOptions{CacheBytes: cacheBytes}, cfgEdit)
}

// TestCacheWarmColdByteIdentical is the serving-path metamorphic check: the
// same request served cold (all misses) and warm (all hits) must produce
// byte-identical jplace documents, and the warm pass must not touch the
// engine.
func TestCacheWarmColdByteIdentical(t *testing.T) {
	fx := cacheFixture(t, 1<<20, nil)
	body := fx.queryFasta(7, 10)

	resp, cold := fx.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	placedCold := fx.eng.Stats().QueriesPlaced
	resp, warm := fx.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	if string(cold) != string(warm) {
		t.Fatal("warm response differs from cold response")
	}
	if placedWarm := fx.eng.Stats().QueriesPlaced; placedWarm != placedCold {
		t.Fatalf("warm request placed %d queries, want 0", placedWarm-placedCold)
	}
	d := &fx.tel.Dedup
	if d.CacheMisses.Load() != 10 || d.CacheHits.Load() != 10 {
		t.Fatalf("cache hits=%d misses=%d, want 10/10", d.CacheHits.Load(), d.CacheMisses.Load())
	}
	if d.CachedEntries.Load() != 10 || d.CachedBytes.Load() == 0 {
		t.Fatalf("cache gauges = %d entries, %d bytes", d.CachedEntries.Load(), d.CachedBytes.Load())
	}
	if d.CachedBytes.Load() != fx.tenant.cache.Bytes() {
		t.Fatal("gauge and cache disagree on bytes")
	}
}

// metricsView is what the tests read back from a /metrics body. The
// document's live telemetry groups marshal but do not unmarshal, so a reader
// declares the keys it wants, as any scraper does.
type metricsView struct {
	Budget  budgetSection `json:"budget"`
	Tenants []struct {
		ID     string `json:"id"`
		Report struct {
			Memory    placement.MemoryReport `json:"memory"`
			Telemetry struct {
				Server struct {
					Requests uint64 `json:"requests"`
				} `json:"server"`
				Dedup struct {
					CacheMisses   uint64 `json:"cache_misses"`
					CachedEntries int64  `json:"cached_entries"`
				} `json:"dedup"`
			} `json:"telemetry"`
		} `json:"report"`
	} `json:"tenants"`
}

// TestCacheDisabledStillServes: a nil cache (size 0) serves identically,
// with every cache counter at zero.
func TestCacheDisabledStillServes(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	body := fx.queryFasta(8, 6)
	if resp, data := fx.post(t, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	d := &fx.tel.Dedup
	if d.CacheHits.Load() != 0 || d.CacheMisses.Load() != 0 || d.CachedEntries.Load() != 0 {
		t.Fatalf("cache counters moved without a cache: %d hits, %d misses, %d entries",
			d.CacheHits.Load(), d.CacheMisses.Load(), d.CachedEntries.Load())
	}
}

// TestCacheMixedRequest: a request mixing cached and novel queries answers
// the hits from the cache and only places the misses, and the document
// preserves the request's query order.
func TestCacheMixedRequest(t *testing.T) {
	fx := cacheFixture(t, 1<<20, nil)
	warmBody := fx.queryFasta(9, 4)
	if resp, data := fx.post(t, warmBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, data)
	}
	placed0 := fx.eng.Stats().QueriesPlaced

	mixed := warmBody + fx.queryFasta(10, 3)
	resp, data := fx.post(t, mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed: status %d: %s", resp.StatusCode, data)
	}
	if placed := fx.eng.Stats().QueriesPlaced - placed0; placed != 3 {
		t.Fatalf("mixed request placed %d queries, want 3 (the misses)", placed)
	}
	doc := decodeJplace(t, data)
	if len(doc.Queries) != 7 {
		t.Fatalf("mixed response has %d queries, want 7", len(doc.Queries))
	}
	for i, q := range doc.Queries {
		wantSeed := int64(9)
		wantIdx := i
		if i >= 4 {
			wantSeed, wantIdx = 10, i-4
		}
		if want := fmt.Sprintf("query_%d_%d", wantSeed, wantIdx); q.Name != want {
			t.Fatalf("query %d = %q, want %q (order not preserved)", i, q.Name, want)
		}
		if len(q.Placements) == 0 {
			t.Fatalf("query %q has no placements", q.Name)
		}
	}
}

// TestCacheEvictsUnderPressure: a cache far larger than its budget share
// stays bounded — inserts evict instead of overcommitting — and admission
// keeps working (no 429s from cache growth, no sticky accountant error).
func TestCacheEvictsUnderPressure(t *testing.T) {
	var capBytes int64 = 2048
	fx := cacheFixture(t, capBytes, nil)
	for seed := int64(20); seed < 30; seed++ {
		resp, data := fx.post(t, fx.queryFasta(seed, 8))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
	}
	if got := fx.tenant.cache.Bytes(); got > capBytes {
		t.Fatalf("cache bytes %d exceed cap %d", got, capBytes)
	}
	if fx.tel.Dedup.CacheEvictions.Load() == 0 {
		t.Fatal("no evictions despite cache pressure")
	}
	if got := fx.tel.Dedup.CachedBytes.Load(); got > capBytes {
		t.Fatalf("cached-bytes gauge %d exceeds cap %d", got, capBytes)
	}
	if err := fx.eng.Accountant().Err(); err != nil {
		t.Fatalf("cache pressure tripped the accountant: %v", err)
	}
}

// TestMetricsShowsCache: /metrics exposes the tenant's dedup/cache telemetry
// group and the result-cache accounting category in its report.
func TestMetricsShowsCache(t *testing.T) {
	fx := cacheFixture(t, 1<<20, nil)
	if resp, data := fx.post(t, fx.queryFasta(30, 5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	resp, err := http.Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mdoc metricsView
	if err := json.NewDecoder(resp.Body).Decode(&mdoc); err != nil {
		t.Fatal(err)
	}
	if len(mdoc.Tenants) != 1 {
		t.Fatalf("metrics has %d tenants, want 1", len(mdoc.Tenants))
	}
	rep := mdoc.Tenants[0].Report
	if rep.Telemetry.Dedup.CacheMisses != 5 || rep.Telemetry.Dedup.CachedEntries != 5 {
		t.Fatalf("metrics dedup = %+v, want 5 misses and 5 entries", rep.Telemetry.Dedup)
	}
	got, ok := rep.Memory.Breakdown["result-cache"]
	if !ok {
		t.Fatal("result-cache missing from memory breakdown")
	}
	if got != fx.tenant.cache.Bytes() {
		t.Fatalf("breakdown result-cache = %d, cache reports %d", got, fx.tenant.cache.Bytes())
	}
}

// TestDedupDisabledServer: --dedup=false routes through the no-dedup engine
// path; the response for a duplicate-heavy request is still correct.
func TestDedupDisabledServer(t *testing.T) {
	fx := newTestFixtureCfg(t, fixtureOptions{},
		func(cfg *placement.Config) { cfg.NoDedup = true })
	body := fx.queryFasta(31, 4)
	// Same content under fresh names: FASTA labels must be unique.
	dup := strings.ReplaceAll(body, ">query_31_", ">dup_31_")
	resp, data := fx.post(t, body+dup)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if doc := decodeJplace(t, data); len(doc.Queries) != 8 {
		t.Fatalf("%d queries in response, want 8", len(doc.Queries))
	}
	if seen := fx.eng.Report().Telemetry.Dedup.QueriesSeen; seen != 0 {
		t.Fatalf("dedup counters moved with dedup off: %d queries seen", seen)
	}
}

func decodeJplace(t *testing.T, data []byte) *jplace.Document {
	t.Helper()
	doc, err := jplace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bad jplace response: %v\n%s", err, data)
	}
	return doc
}
