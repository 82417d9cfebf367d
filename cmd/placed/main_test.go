package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/model"
	"phylomem/internal/placement"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

// testReference builds an in-memory reference over a random n-leaf tree with
// the same lightweight JC69+G2 model the placement tests use. The returned
// leaf sequences seed derived queries.
func testReference(t *testing.T, seed int64, n, width int) (*refdb.Reference, []seq.Sequence) {
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
	rates, err := model.GammaRates(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refdb.Reference{Tree: tr, MSA: msa, Alphabet: seq.DNA, Model: model.JC69(), Rates: rates, Spec: "JC69+G2"}
	return ref, seqs
}

// fixtureOptions parameterize the served test fleet.
type fixtureOptions struct {
	MaxBatch      int
	InflightBytes int64
	CacheBytes    int64
	FleetMaxMem   int64
}

// testFixture is a single-tree fleet (id "default", prewarmed) behind a
// served placement server, plus the query material to exercise it.
type testFixture struct {
	t        *testing.T
	tr       *tree.Tree
	f        *fleet
	srv      *server
	ts       *httptest.Server
	tenant   *tenant
	eng      *placement.Engine
	tel      *telemetry.Sink
	width    int
	leafSeqs []seq.Sequence
	closed   bool
}

// newTestFixture builds a warm single-tree fleet over a random 8-leaf
// reference and wraps it in a served placement server.
func newTestFixture(t *testing.T, fo fixtureOptions) *testFixture {
	t.Helper()
	const n, width = 8, 60
	ref, seqs := testReference(t, 11, n, width)

	cfg := placement.DefaultConfig()
	cfg.ChunkSize = 16
	cfg.BlockSize = 4
	cat := &catalog{}
	if err := cat.add(&catalogEntry{
		id:   "default",
		load: func() (*refdb.Reference, error) { return ref, nil },
	}); err != nil {
		t.Fatal(err)
	}
	f := newFleet(cat, fleetOptions{
		MaxMem:        fo.FleetMaxMem,
		BaseConfig:    cfg,
		CacheBytes:    fo.CacheBytes,
		InflightBytes: fo.InflightBytes,
		MaxBatch:      fo.MaxBatch,
	})
	srv := newServer(f, serverOptions{})
	ts := httptest.NewServer(srv.handler())

	ten, err := f.get("default")
	if err != nil {
		ts.Close()
		t.Fatalf("prewarm: %v", err)
	}
	f.release(ten)

	fx := &testFixture{t: t, tr: ref.Tree, f: f, srv: srv, ts: ts,
		tenant: ten, eng: ten.eng, tel: ten.tel, width: width, leafSeqs: seqs}
	t.Cleanup(fx.close)
	return fx
}

// close tears the fixture down; the fleet close runs both accountant-level
// drain audits, so a leak anywhere in the serving path fails the test.
func (fx *testFixture) close() {
	fx.ts.Close()
	if fx.closed {
		return
	}
	fx.closed = true
	if err := fx.f.close(); err != nil {
		fx.t.Errorf("fleet close: %v", err)
	}
}

// queryFasta renders nq derived query sequences as FASTA text.
func (fx *testFixture) queryFasta(seed int64, nq int) string {
	return queryFastaFrom(fx.leafSeqs, seed, nq)
}

// queryFastaFrom derives nq mutated queries from the given leaf sequences.
func queryFastaFrom(leafSeqs []seq.Sequence, seed int64, nq int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < nq; i++ {
		src := leafSeqs[rng.Intn(len(leafSeqs))]
		data := append([]byte(nil), src.Data...)
		for m := 0; m < 4; m++ {
			data[rng.Intn(len(data))] = "ACGT"[rng.Intn(4)]
		}
		fmt.Fprintf(&sb, ">query_%d_%d\n%s\n", seed, i, data)
	}
	return sb.String()
}

func (fx *testFixture) post(t *testing.T, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(fx.ts.URL+"/v1/place", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPlaceRoundTrip posts queries and checks the jplace response: every
// query answered in order, placements on real edges, and the whole exchange
// deterministic (two identical requests yield byte-identical documents).
func TestPlaceRoundTrip(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	body := fx.queryFasta(1, 5)

	resp, data := fx.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	doc, err := jplace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("response is not jplace: %v", err)
	}
	if len(doc.Queries) != 5 {
		t.Fatalf("got %d placed queries, want 5", len(doc.Queries))
	}
	for i, q := range doc.Queries {
		if want := fmt.Sprintf("query_1_%d", i); q.Name != want {
			t.Errorf("query %d: name %q, want %q (order must be preserved)", i, q.Name, want)
		}
		if len(q.Placements) == 0 {
			t.Errorf("query %q: no placements", q.Name)
		}
		for _, p := range q.Placements {
			if p.EdgeNum < 0 || p.EdgeNum >= fx.tr.NumBranches() {
				t.Errorf("query %q: edge %d out of range", q.Name, p.EdgeNum)
			}
		}
	}

	resp2, data2 := fx.post(t, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if !bytes.Equal(data, data2) {
		t.Error("identical requests returned different documents")
	}
}

// TestTreeParamRouting checks the `tree` routing contract on a single-tree
// catalog: the explicit id and the omitted default hit the same tenant,
// unknown ids are 404, and malformed ids are 400.
func TestTreeParamRouting(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	body := fx.queryFasta(2, 3)

	_, implicit := fx.post(t, body)
	resp, err := http.Post(fx.ts.URL+"/v1/place?tree=default", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	explicit, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?tree=default: status %d: %s", resp.StatusCode, explicit)
	}
	if !bytes.Equal(implicit, explicit) {
		t.Error("explicit tree id and default produced different documents")
	}

	resp, err = http.Post(fx.ts.URL+"/v1/place?tree=no-such-tree", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tree: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(fx.ts.URL+"/v1/place?tree=..%2F..%2Fetc", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed tree id: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentRequests hammers the server from interleaved goroutines and
// checks every response individually: coalesced batching must not mix up
// which placements belong to which request. One more client scrapes /metrics
// throughout: that document holds the fleet's and the tenant's live telemetry
// groups by pointer and is marshalled while handlers, the batcher and pool
// workers update them (under -race, the guard that every load is atomic), and
// every scrape must be a complete document.
func TestConcurrentRequests(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{MaxBatch: 8})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			resp, err := http.Get(fx.ts.URL + "/metrics")
			if err != nil {
				scraped <- err
				return
			}
			var doc map[string]json.RawMessage
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil || doc["fleet"] == nil || doc["tenants"] == nil {
				scraped <- fmt.Errorf("incomplete /metrics document (%v): %v", err, doc)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nq := 1 + c%3
			resp, err := http.Post(fx.ts.URL+"/v1/place", "text/plain",
				strings.NewReader(fx.queryFasta(int64(100+c), nq)))
			if err != nil {
				errs <- err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
				return
			}
			doc, err := jplace.Read(bytes.NewReader(data))
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			if len(doc.Queries) != nq {
				errs <- fmt.Errorf("client %d: got %d queries, want %d", c, len(doc.Queries), nq)
				return
			}
			for i, q := range doc.Queries {
				if want := fmt.Sprintf("query_%d_%d", 100+c, i); q.Name != want {
					errs <- fmt.Errorf("client %d: query %d named %q, want %q", c, i, q.Name, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Error(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := fx.tel.Server.Requests.Load(); n != clients {
		t.Errorf("telemetry: %d requests recorded, want %d", n, clients)
	}
	if fx.tel.Server.Batches.Load() == 0 {
		t.Error("telemetry: no batches recorded")
	}
}

// TestBadRequests checks the 400 class: malformed FASTA, duplicate labels
// (the typed seq error), and wrong-width queries.
func TestBadRequests(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"not-fasta", "this is not fasta\n"},
		{"duplicate-labels", ">a\n" + strings.Repeat("A", fx.width) + "\n>a\n" + strings.Repeat("C", fx.width) + "\n"},
		{"wrong-width", ">a\nACGT\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := fx.post(t, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not structured: %s", data)
			}
		})
	}
}

// holdEngine keeps eng busy — its run lock held by a PlaceStream whose
// source blocks — until the returned release is called, so requests reaching
// the batcher meanwhile stay parked behind a busy engine. release waits for
// the stream to finish; the test's cleanup calls it too.
func holdEngine(t *testing.T, eng *placement.Engine) (release func()) {
	t.Helper()
	src := &blockingSource{started: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := eng.PlaceStream(context.Background(), src, func(jplace.Placements) error { return nil })
		done <- err
	}()
	<-src.started
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(src.gate)
			if err := <-done; err != nil {
				t.Errorf("engine hold: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// blockingSource is an empty query source whose one read blocks until gate
// closes; started closes once the read (and so the engine's run lock) is
// under way.
type blockingSource struct{ started, gate chan struct{} }

func (s *blockingSource) NextChunk(int) ([]placement.Query, error) {
	close(s.started)
	<-s.gate
	return nil, nil
}

// TestAdmissionControl runs the tenant with an in-flight budget of exactly
// one request's query bytes: while the first request is parked behind a busy
// engine, a second must get 429 + Retry-After rather than queueing more
// memory, and once the first completes the budget frees up again.
func TestAdmissionControl(t *testing.T) {
	oneReq := fx429Bytes(t)
	fx := newTestFixture(t, fixtureOptions{InflightBytes: oneReq})
	release := holdEngine(t, fx.eng)
	body := fx.queryFasta(7, 1)

	firstDone := make(chan struct{})
	var firstStatus int
	go func() {
		defer close(firstDone)
		resp, _ := fx.post(t, body)
		firstStatus = resp.StatusCode
	}()

	// Wait until the first request holds the whole budget.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fx.tenant.admitMu.Lock()
		held := fx.tenant.inflight
		fx.tenant.admitMu.Unlock()
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never reserved its bytes")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := fx.post(t, fx.queryFasta(8, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("concurrent request: status %d, want 429; body: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	release()
	<-firstDone
	if firstStatus != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", firstStatus)
	}

	// Budget released: the retry succeeds.
	resp, data = fx.post(t, fx.queryFasta(8, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after drain: status %d: %s", resp.StatusCode, data)
	}
	if fx.tel.Server.Rejected.Load() == 0 {
		t.Error("telemetry: rejection not counted")
	}
}

// fx429Bytes computes the reservation of a single one-query request so the
// admission test can size its budget to exactly one request.
func fx429Bytes(t *testing.T) int64 {
	t.Helper()
	probe := newTestFixture(t, fixtureOptions{})
	seqs, err := seq.ReadFasta(strings.NewReader(probe.queryFasta(7, 1)))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := placement.EncodeQueries(seq.DNA, seqs, probe.width)
	if err != nil {
		t.Fatal(err)
	}
	return placement.QueryBytes(qs)
}

// TestHealthzAndMetrics checks the observability endpoints: healthz serves
// lock-free fleet-wide counters, metrics serves the fleet document with the
// global budget and one full per-tenant report.
func TestHealthzAndMetrics(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	if resp, data := fx.post(t, fx.queryFasta(3, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d: %s", resp.StatusCode, data)
	}

	resp, err := http.Get(fx.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthzBody
	err = json.NewDecoder(resp.Body).Decode(&hb)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hb.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", resp.StatusCode, hb)
	}
	if hb.Requests != 1 || hb.QueriesReceived != 2 {
		t.Errorf("healthz counters: %+v", hb)
	}
	if hb.TenantsWarm != 1 || hb.Trees != 1 {
		t.Errorf("healthz fleet shape: warm=%d trees=%d, want 1/1", hb.TenantsWarm, hb.Trees)
	}

	resp, err = http.Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mdoc struct {
		SchemaVersion int                        `json:"schema_version"`
		Fleet         map[string]json.RawMessage `json:"fleet"`
		Budget        budgetSection              `json:"budget"`
		Tenants       []struct {
			ID     string                     `json:"id"`
			Report map[string]json.RawMessage `json:"report"`
		} `json:"tenants"`
	}
	err = json.NewDecoder(resp.Body).Decode(&mdoc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mdoc.SchemaVersion != telemetry.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", mdoc.SchemaVersion, telemetry.SchemaVersion)
	}
	for _, key := range []string{"engines_built", "tenants_warm"} {
		if _, ok := mdoc.Fleet[key]; !ok {
			t.Errorf("metrics fleet section missing %q", key)
		}
	}
	if len(mdoc.Tenants) != 1 || mdoc.Tenants[0].ID != "default" {
		t.Fatalf("metrics tenants = %+v, want one entry for default", mdoc.Tenants)
	}
	for _, key := range []string{"plan", "memory", "telemetry"} {
		if _, ok := mdoc.Tenants[0].Report[key]; !ok {
			t.Errorf("tenant report missing %q section", key)
		}
	}
	if got, ok := mdoc.Budget.Breakdown["tenant:default"]; !ok || got <= 0 {
		t.Errorf("budget breakdown missing tenant:default: %+v", mdoc.Budget.Breakdown)
	}
	var tel struct {
		Server struct {
			Requests uint64 `json:"requests"`
		} `json:"server"`
	}
	if err := json.Unmarshal(mdoc.Tenants[0].Report["telemetry"], &tel); err != nil {
		t.Fatal(err)
	}
	if tel.Server.Requests != 1 {
		t.Errorf("tenant telemetry server.requests = %d, want 1", tel.Server.Requests)
	}
}

// TestDrainDoesNotLoseAcceptedQueries exercises the SIGTERM path: a request
// parked behind a busy engine when the drain begins must still be answered
// with its placements, later requests must get 503, and the fleet's
// end-of-run audits at both accountant levels must pass (no leaked
// reservations).
func TestDrainDoesNotLoseAcceptedQueries(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	release := holdEngine(t, fx.eng)
	type result struct {
		status int
		data   []byte
	}
	pending := make(chan result, 1)
	go func() {
		resp, data := fx.post(t, fx.queryFasta(5, 3))
		pending <- result{resp.StatusCode, data}
	}()

	// Wait until the request is parked in the batcher.
	deadline := time.Now().Add(5 * time.Second)
	for fx.tel.ServerGroup().QueriesReceived.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the batcher")
		}
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- fx.srv.shutdown(drainCtx, fx.ts.Config) }()
	for !fx.srv.isDraining() {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res := <-pending
	if res.status != http.StatusOK {
		t.Fatalf("parked request: status %d, want 200 (accepted queries must not be lost); body: %s", res.status, res.data)
	}
	doc, err := jplace.Read(bytes.NewReader(res.data))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Queries) != 3 {
		t.Fatalf("parked request: %d queries answered, want 3", len(doc.Queries))
	}

	// The listener is gone; exercise the draining 503 via the handler.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(fx.queryFasta(6, 1)))
	fx.srv.handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", rec.Code)
	}

	// The two-level drain: every engine audit plus the fleet accountant.
	fx.closed = true
	if err := fx.f.close(); err != nil {
		t.Fatalf("post-drain audit: %v", err)
	}
}

// TestRunFlagValidation checks the CLI's input-error paths without binding
// a socket.
func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	if err := run(ctx, []string{}, &out); err == nil {
		t.Error("no flags: want error")
	}
	if err := run(ctx, []string{"--tree", "x.nwk"}, &out); err == nil {
		t.Error("missing --ref-msa: want error")
	}
	if err := run(ctx, []string{"--tree", "no-such-file.nwk", "--ref-msa", "no-such-file.fasta"}, &out); err == nil {
		t.Error("missing files: want error")
	}
	if err := run(ctx, []string{"--catalog", "cat.json", "--tree", "x.nwk"}, &out); err == nil {
		t.Error("--catalog with --tree: want mutual-exclusion error")
	}
	if err := run(ctx, []string{"--catalog", "no-such-catalog.json"}, &out); err == nil {
		t.Error("missing catalog file: want error")
	}
	if err := run(ctx, []string{"--catalog", "cat.json", "--clv-spill=bogus"}, &out); err == nil {
		t.Error("unknown spill policy: want error")
	}
	// A flag the naming flag already answers used to be dropped silently.
	for _, args := range [][]string{
		{"--db", "r.db", "--tree", "x.nwk"},
		{"--db", "r.db", "--ref-msa", "x.fasta"},
		{"--db", "r.db", "--model", "JC69"},
		{"--db", "r.db", "--type", "AA"},
		{"--db", "r.db", "--emp-freqs=false"},
		{"--catalog", "cat.json", "--db", "r.db"},
		{"--catalog", "cat.json", "--model", "JC69"},
	} {
		err := run(ctx, args, &out)
		if err == nil || !strings.Contains(err.Error(), args[0]) || !strings.Contains(err.Error(), strings.SplitN(args[2], "=", 2)[0]) {
			t.Errorf("%v: err = %v, want a usage error naming both flags", args, err)
		} else if code := placement.ExitCode(err); code != 1 {
			t.Errorf("%v: exit code %d, want 1", args, code)
		}
	}
	// A stray token used to end flag parsing silently, dropping every flag
	// after it; the removed `--clv-spill discard` spelling is one such token.
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"oops", "--catalog", "cat.json"}, "oops"},
		{[]string{"--catalog", "cat.json", "oops", "--maxmem", "1G"}, "oops"},
		{[]string{"--catalog", "cat.json", "--clv-spill", "discard", "--maxmem", "2M"}, "discard"},
	} {
		err := run(ctx, tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.stray)) {
			t.Errorf("%v: err = %v, want a usage error naming %q", tc.args, err, tc.stray)
		} else if code := placement.ExitCode(err); code != 1 {
			t.Errorf("%v: exit code %d, want 1", tc.args, code)
		}
	}
}

// TestFlagSurfaceGolden pins placed's flag names and defaults. The golden was
// dumped from the parent of the change that introduced the shared binder; its
// only diff since is the one flag that change deleted.
func TestFlagSurfaceGolden(t *testing.T) {
	fs, _ := newFlags()
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%q\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestCatalogRowEqualsSingleTreeFlags: a catalog row and the single-tree
// flags spelling the same reference resolve, through the one loader, to equal
// references under equal per-engine ceilings. A row that leaves a field out
// gets the flag's default: without emp_freqs, empirical frequencies.
func TestCatalogRowEqualsSingleTreeFlags(t *testing.T) {
	ref, _ := testReference(t, 71, 12, 60)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.nwk"), []byte(ref.Tree.WriteNewick()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFasta(&fasta, ref.MSA.Sequences); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r.fasta"), fasta.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	catFile := filepath.Join(dir, "cat.json")
	rows := `{"trees": [{"id": "explicit", "tree": "t.nwk", "ref_msa": "r.fasta", "model": "JC69+G2", "emp_freqs": false, "maxmem": "3M"},
		{"id": "defaults", "tree": "t.nwk", "ref_msa": "r.fasta"}]}`
	if err := os.WriteFile(catFile, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(id string, args ...string) (*refdb.Reference, int64) {
		t.Helper()
		fs, o := newFlags()
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cat, err := resolveCatalog(fs, o)
		if err != nil {
			t.Fatal(err)
		}
		entry := cat.get(id)
		got, err := entry.load()
		if err != nil {
			t.Fatal(err)
		}
		return got, entry.maxMem
	}
	same := func(a, b *refdb.Reference) bool {
		return a.Tree.WriteNewick() == b.Tree.WriteNewick() && reflect.DeepEqual(a.MSA.Sequences, b.MSA.Sequences) &&
			a.Alphabet == b.Alphabet && a.Spec == b.Spec && reflect.DeepEqual(a.Freqs, b.Freqs) &&
			reflect.DeepEqual(a.Model, b.Model) && reflect.DeepEqual(a.Rates, b.Rates)
	}
	flags := []string{"--tree", filepath.Join(dir, "t.nwk"), "--ref-msa", filepath.Join(dir, "r.fasta")}

	a, amem := open("explicit", "--catalog", catFile)
	b, bmem := open("default", append(flags, "--model", "JC69+G2", "--emp-freqs=false", "--maxmem", "3M")...)
	if amem != bmem || amem != 3<<20 {
		t.Errorf("ceilings %d vs %d, want 3M", amem, bmem)
	}
	if !same(a, b) || a.Freqs != nil {
		t.Errorf("catalog row and single-tree flags resolved to different references:\n%+v\n%+v", a, b)
	}

	a, amem = open("defaults", "--catalog", catFile, "--maxmem", "5M")
	b, bmem = open("default", append(flags, "--maxmem", "5M")...)
	if amem != bmem || amem != 5<<20 {
		t.Errorf("default ceilings %d vs %d, want 5M", amem, bmem)
	}
	if !same(a, b) || a.Freqs == nil {
		t.Errorf("a row without emp_freqs resolved differently from the flag defaults (freqs %v vs %v)", a.Freqs, b.Freqs)
	}
}
