package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/placement"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
)

// fleetFixture is a served multi-tree fleet for the differential suite.
type fleetFixture struct {
	t      *testing.T
	f      *fleet
	srv    *server
	ts     *httptest.Server
	leaves map[string][]seq.Sequence
	closed bool
}

// newFleetFixture serves the given references as a fleet. References are
// shared across fixtures so solo and fleet runs see identical inputs.
func newFleetFixture(t *testing.T, refs map[string]*refdb.Reference, leaves map[string][]seq.Sequence, fo fleetOptions) *fleetFixture {
	t.Helper()
	cat := &catalog{}
	// Deterministic catalog order: sorted ids.
	ids := make([]string, 0, len(refs))
	for id := range refs {
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		ref := refs[id]
		if err := cat.add(&catalogEntry{id: id, load: func() (*refdb.Reference, error) { return ref, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	f := newFleet(cat, fo)
	srv := newServer(f, serverOptions{})
	ts := httptest.NewServer(srv.handler())
	fx := &fleetFixture{t: t, f: f, srv: srv, ts: ts, leaves: leaves}
	t.Cleanup(func() {
		ts.Close()
		if !fx.closed {
			fx.closed = true
			if err := f.close(); err != nil {
				t.Errorf("fleet close: %v", err)
			}
		}
	})
	return fx
}

// place posts the tenant's canonical query set and returns the document.
func (fx *fleetFixture) place(id string) []byte {
	fx.t.Helper()
	body := queryFastaFrom(fx.leaves[id], 40, 6)
	resp, err := http.Post(fx.ts.URL+"/v1/place?tree="+id, "text/plain", strings.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fx.t.Fatalf("place tree %q: status %d: %s", id, resp.StatusCode, data)
	}
	return data
}

// reclaim hits /admin/reclaim and returns the bytes freed.
func (fx *fleetFixture) reclaim(id, level string) int64 {
	fx.t.Helper()
	resp, err := http.Post(fx.ts.URL+"/admin/reclaim?tree="+id+"&level="+level, "", nil)
	if err != nil {
		fx.t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fx.t.Fatalf("reclaim %s %q: status %d: %s", level, id, resp.StatusCode, data)
	}
	var out struct {
		FreedBytes int64 `json:"freed_bytes"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		fx.t.Fatal(err)
	}
	return out.FreedBytes
}

// fleetRefs builds the two shared references the differential suite places
// against: different trees, same shape, AMC-friendly size.
func fleetRefs(t *testing.T) (map[string]*refdb.Reference, map[string][]seq.Sequence) {
	t.Helper()
	refA, leafA := testReference(t, 21, 16, 60)
	refB, leafB := testReference(t, 22, 16, 60)
	return map[string]*refdb.Reference{"a": refA, "b": refB},
		map[string][]seq.Sequence{"a": leafA, "b": leafB}
}

// soloDocs places each tenant's canonical queries on a single-tree fleet —
// the baseline every fleet scenario must reproduce byte for byte.
func soloDocs(t *testing.T, refs map[string]*refdb.Reference, leaves map[string][]seq.Sequence, base placement.Config) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for id := range refs {
		solo := newFleetFixture(t,
			map[string]*refdb.Reference{id: refs[id]},
			map[string][]seq.Sequence{id: leaves[id]},
			fleetOptions{BaseConfig: base})
		out[id] = solo.place(id)
	}
	return out
}

// TestFleetDifferentialIdentity is the differential suite: each tenant's
// jplace output must be byte-identical whether the tenant runs alone, is
// cold-started in a shared fleet, has just been slot-shrunk, demoted to the
// spill tier, or serves right after a neighbor created cross-tenant
// pressure — the fleet levers may move memory, never results. Runs once per
// re-warm path (recompute, and disk spill/reload) and once over the posterior
// document (post_prob column).
func TestFleetDifferentialIdentity(t *testing.T) {
	for _, mode := range []string{"recompute", "spill", "bayes"} {
		t.Run(mode, func(t *testing.T) {
			refs, leaves := fleetRefs(t)
			base := placement.DefaultConfig()
			base.ChunkSize = 16
			base.BlockSize = 4
			base.ForceAMC = true
			switch mode {
			case "spill":
				base.SpillPolicy = core.SpillOnly{}
				base.SpillPath = filepath.Join(t.TempDir(), "spill")
			case "bayes":
				base.Scoring = placement.ScoringBayes
			}
			solo := soloDocs(t, refs, leaves, base)
			if hasPost := bytes.Contains(solo["a"], []byte(`"post_prob"`)); hasPost != (mode == "bayes") {
				t.Fatalf("solo document has post_prob: %v", hasPost)
			}

			fx := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base})
			// Cold start in the shared fleet.
			for _, id := range []string{"a", "b"} {
				if !bytes.Equal(fx.place(id), solo[id]) {
					t.Fatalf("cold-start output for %q differs from solo", id)
				}
			}
			// Slot-shrunk.
			fx.reclaim("a", "shrink")
			if !bytes.Equal(fx.place("a"), solo["a"]) {
				t.Fatal("shrunk output differs from solo")
			}
			// Demoted (every CLV pushed out, pool at floor), then served.
			if freed := fx.reclaim("a", "demote"); freed <= 0 {
				t.Fatalf("demote freed %d bytes, want > 0", freed)
			}
			if !bytes.Equal(fx.place("a"), solo["a"]) {
				t.Fatal("demoted output differs from solo")
			}
			if mode == "spill" {
				// The demoted tenant must have re-warmed from the spill tier
				// (checked before the eviction below discards its sink).
				var reloads uint64
				for _, ten := range fx.f.snapshotTenants() {
					reloads += ten.eng.Stats().CLVStats.SpillReloads
				}
				if reloads == 0 {
					t.Error("spill mode never reloaded a spilled CLV")
				}
			}
			// Cross-tenant pressure: a's demotion must not disturb b.
			fx.reclaim("a", "demote")
			if !bytes.Equal(fx.place("b"), solo["b"]) {
				t.Fatal("neighbor output differs from solo under cross-tenant pressure")
			}
			// Evicted, then cold-rebuilt on the next request.
			if freed := fx.reclaim("a", "evict"); freed <= 0 {
				t.Fatalf("evict freed %d bytes, want > 0", freed)
			}
			if !bytes.Equal(fx.place("a"), solo["a"]) {
				t.Fatal("post-eviction rebuild output differs from solo")
			}
		})
	}
}

// TestFleetGlobalBudgetReclaim is the tentpole acceptance scenario: two
// tenants under a global budget smaller than the sum of their warm
// footprints. The fleet must serve both (reclaiming from the idle tenant to
// fit the cold one), outputs stay byte-identical to solo runs, per-tenant
// telemetry is addressable in /metrics, and both accountant levels drain
// clean at shutdown.
func TestFleetGlobalBudgetReclaim(t *testing.T) {
	refs, leaves := fleetRefs(t)
	base := placement.DefaultConfig()
	base.ChunkSize = 16
	base.BlockSize = 4
	base.ForceAMC = true
	solo := soloDocs(t, refs, leaves, base)

	// Measure pass: warm both tenants without a limit to learn the combined
	// footprint and how much a demotion of one tenant can return.
	probe := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base})
	probe.place("a")
	probe.place("b")
	full := probe.f.acct.Current()
	freed := probe.reclaim("a", "demote")
	if freed <= 0 {
		t.Fatalf("measure pass: demote freed %d bytes, want > 0", freed)
	}
	probe.closed = true
	if err := probe.f.close(); err != nil {
		t.Fatalf("measure pass close: %v", err)
	}

	// Budget pass: a global ceiling below the combined warm footprint, but
	// within reach of the reclaim ladder.
	limit := full - freed/2
	fx := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base, MaxMem: limit})
	if !bytes.Equal(fx.place("a"), solo["a"]) {
		t.Fatal("tenant a under global budget differs from solo")
	}
	if !bytes.Equal(fx.place("b"), solo["b"]) {
		t.Fatal("tenant b under global budget differs from solo")
	}
	if cur := fx.f.acct.Current(); cur > limit {
		t.Fatalf("global accountant at %d bytes, over the %d limit", cur, limit)
	}
	ftel := fx.f.ftel
	if n := ftel.EnginesBuilt.Load(); n < 2 {
		t.Fatalf("fleet built %d engines, want >= 2", n)
	}
	if ftel.EnginesShrunk.Load()+ftel.EnginesDemoted.Load()+ftel.EnginesEvicted.Load() == 0 {
		t.Error("serving both tenants under the budget required no reclaim — limit not binding")
	}
	if ftel.BytesReclaimed.Load() == 0 {
		t.Error("reclaim happened but bytes_reclaimed is zero")
	}

	// Per-tenant telemetry must be addressable for every warm tenant, and
	// requests must be attributed to the right one.
	resp, err := http.Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mdoc metricsView
	err = json.NewDecoder(resp.Body).Decode(&mdoc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(mdoc.Tenants) == 0 {
		t.Fatal("no tenants in /metrics")
	}
	if mdoc.Budget.LimitBytes != limit {
		t.Errorf("metrics budget limit = %d, want %d", mdoc.Budget.LimitBytes, limit)
	}
	for _, ten := range mdoc.Tenants {
		if ten.Report.Telemetry.Server.Requests == 0 {
			t.Errorf("tenant %q has no attributed requests", ten.ID)
		}
		if _, ok := mdoc.Budget.Breakdown["tenant:"+ten.ID]; !ok {
			t.Errorf("budget breakdown missing tenant:%s", ten.ID)
		}
	}

	// Two-level drain: the deferred fixture close asserts it, but do it
	// explicitly so a failure points here.
	fx.closed = true
	if err := fx.f.close(); err != nil {
		t.Fatalf("two-level drain: %v", err)
	}
}

// TestFleetShrinksReferenceTenant: a reference-mode tenant (no per-engine
// ceiling, every CLV resident) is shrunk, not evicted, when a cold tenant
// needs room under the global budget. Its next request returns the solo
// placements, and both accountant levels drain at Close.
func TestFleetShrinksReferenceTenant(t *testing.T) {
	refs, leaves := fleetRefs(t)
	base := placement.DefaultConfig()
	base.ChunkSize = 16
	base.BlockSize = 4
	solo := soloDocs(t, refs, leaves, base)

	// Measure pass: the warm two-tenant footprint and what one shrink of a
	// returns.
	probe := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base})
	probe.place("a")
	probe.place("b")
	full := probe.f.acct.Current()
	freed := probe.reclaim("a", "shrink")
	if freed <= 0 {
		t.Fatalf("measure pass: shrink of a reference tenant freed %d bytes, want > 0", freed)
	}
	probe.closed = true
	if err := probe.f.close(); err != nil {
		t.Fatalf("measure pass close: %v", err)
	}

	// The controller ranks levers by measured cost per freed byte. Tenant a
	// serves three requests before b arrives, so the block work its eviction
	// would have to redo outweighs timing noise in the recompute rate that
	// prices the shrink.
	limit := full - freed/2
	fx := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base, MaxMem: limit})
	for range 3 {
		if !bytes.Equal(fx.place("a"), solo["a"]) {
			t.Fatal("tenant a under global budget differs from solo")
		}
	}
	if !bytes.Equal(fx.place("b"), solo["b"]) {
		t.Fatal("tenant b under global budget differs from solo")
	}
	ftel := fx.f.ftel
	if ftel.EnginesShrunk.Load() == 0 || ftel.EnginesEvicted.Load() != 0 {
		t.Fatalf("fitting b shrank %d and evicted %d engines; want a shrink and no eviction",
			ftel.EnginesShrunk.Load(), ftel.EnginesEvicted.Load())
	}
	if !bytes.Equal(fx.place("a"), solo["a"]) {
		t.Fatal("shrunk reference tenant's next request differs from solo")
	}
	if ftel.EnginesEvicted.Load() != 0 {
		t.Fatal("the shrunk tenant was evicted afterwards")
	}
	fx.closed = true
	if err := fx.f.close(); err != nil {
		t.Fatalf("two-level drain: %v", err)
	}
}

// TestFleetBudgetRefusal: when even the full reclaim ladder cannot fit a
// cold tree, the build is refused as backpressure (429 + Retry-After), the
// refusal is counted, and the accountants stay clean.
func TestFleetBudgetRefusal(t *testing.T) {
	refs, leaves := fleetRefs(t)
	base := placement.DefaultConfig()
	base.ChunkSize = 16
	base.BlockSize = 4
	fx := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base, MaxMem: 1024})
	resp, err := http.Post(fx.ts.URL+"/v1/place?tree=a", "text/plain",
		strings.NewReader(queryFastaFrom(leaves["a"], 41, 2)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := fx.f.ftel.BuildRejected.Load(); got != 1 {
		t.Errorf("build_rejected = %d, want 1", got)
	}
}

// TestFleetCountsOnlyAppliedLevers: a lever that does nothing — evicting a
// tenant a request holds (the controller reaches this whenever a request
// arrives between victim enumeration and the lever) — reports why, frees
// nothing and moves no fleet counter; the same eviction counts once it takes
// effect.
func TestFleetCountsOnlyAppliedLevers(t *testing.T) {
	refs, leaves := fleetRefs(t)
	base := placement.DefaultConfig()
	base.ChunkSize = 16
	base.BlockSize = 4
	fx := newFleetFixture(t, refs, leaves, fleetOptions{BaseConfig: base})
	fx.place("a")
	f := fx.f
	apply := func(tn *tenant, kind leverKind) (int64, error) {
		f.buildMu.Lock()
		defer f.buildMu.Unlock()
		return f.apply(tn, kind)
	}

	tn := f.lookup("a") // a request holds the tenant
	if freed, err := apply(tn, leverEvict); err == nil || freed != 0 {
		t.Errorf("evicting a held tenant: freed %d, err %v; want 0 and a reason", freed, err)
	}
	ftel := f.ftel
	if ftel.EnginesEvicted.Load() != 0 || ftel.EnginesShrunk.Load() != 0 || ftel.BytesReclaimed.Load() != 0 || ftel.TenantsWarm.Load() != 1 {
		t.Errorf("levers that did nothing were counted: evicted %d, shrunk %d, %d bytes reclaimed, %d warm",
			ftel.EnginesEvicted.Load(), ftel.EnginesShrunk.Load(), ftel.BytesReclaimed.Load(), ftel.TenantsWarm.Load())
	}

	f.release(tn)
	if freed, err := apply(tn, leverEvict); err != nil || freed <= 0 {
		t.Fatalf("evicting the idle tenant: freed %d, err %v", freed, err)
	}
	if ftel.EnginesEvicted.Load() != 1 || ftel.BytesReclaimed.Load() == 0 || ftel.TenantsWarm.Load() != 0 {
		t.Errorf("applied eviction: evicted %d, %d bytes reclaimed, %d warm; want 1, > 0, 0",
			ftel.EnginesEvicted.Load(), ftel.BytesReclaimed.Load(), ftel.TenantsWarm.Load())
	}
}
