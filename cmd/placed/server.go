package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// serverOptions parameterize the serving layer around the engine fleet.
type serverOptions struct {
	// RequestTimeout bounds one request's wait for its batch (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds one request body (default 1 GiB).
	MaxBodyBytes int64
}

// server is the placement service: a fleet of lazily built engines keyed by
// tree id, each with its own micro-batcher, result cache, admission cap,
// and telemetry, all under one global memory budget.
type server struct {
	fleet   *fleet
	opts    serverOptions
	started time.Time

	drainMu  sync.Mutex
	draining bool
}

// newServer wraps a fleet.
func newServer(f *fleet, opts serverOptions) *server {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 30
	}
	return &server{fleet: f, opts: opts, started: time.Now()}
}

// handler returns the service's route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.handlePlace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /admin/reclaim", s.handleReclaim)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveTenant routes a request to its tenant: the `tree` query parameter
// (or the single-tree catalog's default), validated, looked up, and built on
// first use. On success the tenant's in-flight count is raised; the caller
// must s.fleet.release it. On failure the response has been written.
func (s *server) resolveTenant(w http.ResponseWriter, r *http.Request) *tenant {
	id := r.URL.Query().Get("tree")
	if id == "" {
		if id = s.fleet.cat.defaultID(); id == "" {
			httpError(w, http.StatusBadRequest, "tree parameter required (multi-tree catalog; use /v1/place?tree=<id>)")
			return nil
		}
	}
	if !validTreeID(id) {
		httpError(w, http.StatusBadRequest, "invalid tree id (want 1-%d chars of [A-Za-z0-9._-])", maxTreeIDLen)
		return nil
	}
	if s.fleet.cat.get(id) == nil {
		httpError(w, http.StatusNotFound, "unknown tree %q", id)
		return nil
	}
	t, err := s.fleet.get(id)
	if err != nil {
		if errors.Is(err, errNoHeadroom) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"global memory budget exhausted: tree %q cannot be loaded, retry later", id)
		} else {
			httpError(w, http.StatusInternalServerError, "loading tree %q failed: %v", id, err)
		}
		return nil
	}
	return t
}

// handlePlace is POST /v1/place[?tree=id]: an aligned-FASTA body in, a
// jplace document out. Malformed input is the client's fault (400); an
// unknown tree is 404; admission refusal — per-tenant or global — is
// backpressure (429 + Retry-After); a drain in progress or an expired
// request deadline is unavailability (503).
func (s *server) handlePlace(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t := s.resolveTenant(w, r)
	if t == nil {
		return
	}
	defer s.fleet.release(t)
	seqs, err := seq.ReadFasta(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad fasta body: %v", err)
		return
	}
	queries, err := placement.EncodeQueries(t.alphabet, seqs, t.width)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	// Cross-request result cache: queries whose content digest hits are
	// answered directly; only misses are admitted (by their bytes) and
	// submitted to the batcher. A fully warm request touches neither the
	// admission budget nor the engine.
	results := make([]jplace.Placements, len(queries))
	digests := make([]seq.Digest, len(queries))
	var missIdx []int
	for i, q := range queries {
		digests[i] = seq.DigestCodes(q.Codes)
		if ps, ok := t.cache.Get(digests[i]); ok {
			results[i] = jplace.Placements{Name: q.Name, Placements: ps}
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		misses := make([]placement.Query, len(missIdx))
		for mi, i := range missIdx {
			misses[mi] = queries[i]
		}
		bytes := placement.QueryBytes(misses)
		if !t.admit(bytes) {
			t.tel.ServerGroup().Reject()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"memory budget exhausted: %s of query data in flight for tree %q, retry later",
				memacct.FormatBytes(bytes), t.id)
			return
		}
		defer t.release(bytes)
		t.tel.ServerGroup().Admit(len(queries))

		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		placements, err := t.batcher.Submit(ctx, misses)
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
			errors.Is(err, placement.ErrBatcherClosed), errors.Is(err, placement.ErrEngineClosed):
			httpError(w, http.StatusServiceUnavailable, "placement unavailable: %v", err)
			return
		default:
			httpError(w, http.StatusInternalServerError, "placement failed: %v", err)
			return
		}
		for mi, i := range missIdx {
			results[i] = placements[mi]
			t.cache.Put(digests[i], placements[mi].Placements)
		}
	} else {
		// Fully warm request: every query answered from the cache.
		t.tel.ServerGroup().Admit(len(queries))
	}

	doc := &jplace.Document{
		Tree:       t.treeStr,
		Queries:    results,
		Invocation: "placed /v1/place",
	}
	if s.fleet.opts.BaseConfig.Scoring == placement.ScoringBayes {
		doc.Fields = jplace.FieldsBayes
	}
	w.Header().Set("Content-Type", "application/json")
	if err := jplace.Write(w, doc); err != nil {
		// Headers are gone; all we can do is abort the connection.
		return
	}
	t.tel.ServerGroup().RequestDone(time.Since(t0))
}

// handleReclaim is POST /admin/reclaim?tree=<id>&level=shrink|demote|evict —
// the controller's levers as explicit operations, so tests and CI sweeps
// can create fleet pressure deterministically instead of racing for it.
func (s *server) handleReclaim(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("tree")
	if !validTreeID(id) {
		httpError(w, http.StatusBadRequest, "tree parameter required")
		return
	}
	var kind leverKind
	switch r.URL.Query().Get("level") {
	case "shrink":
		kind = leverShrink
	case "demote":
		kind = leverDemote
	case "evict":
		kind = leverEvict
	default:
		httpError(w, http.StatusBadRequest, "level must be shrink, demote, or evict")
		return
	}
	freed, err := s.fleet.forceLever(id, kind)
	if err != nil {
		httpError(w, http.StatusConflict, "reclaim %s of tree %q: %v", kind, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"tree": id, "level": kind.String(), "freed_bytes": freed})
}

// healthzBody is the GET /healthz document. The request counters are summed
// across tenants; tenants_warm and trees expose the fleet's shape.
type healthzBody struct {
	Status          string `json:"status"` // "ok" or "draining"
	UptimeNS        int64  `json:"uptime_ns"`
	Requests        uint64 `json:"requests"`
	Rejected        uint64 `json:"rejected"`
	QueriesReceived uint64 `json:"queries_received"`
	TenantsWarm     int64  `json:"tenants_warm"`
	Trees           int    `json:"trees"`
}

// handleHealthz reports liveness from lock-free counters only: it must stay
// responsive while placements hold engine run locks.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		Status:   "ok",
		UptimeNS: int64(time.Since(s.started)),
		Trees:    len(s.fleet.cat.order),
	}
	for _, t := range s.fleet.snapshotTenants() {
		sv := t.tel.ServerGroup()
		body.Requests += sv.Requests.Load()
		body.Rejected += sv.Rejected.Load()
		body.QueriesReceived += sv.QueriesReceived.Load()
	}
	body.TenantsWarm = s.fleet.ftel.TenantsWarm.Load()
	status := http.StatusOK
	if s.isDraining() {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// budgetSection is the global accountant's view in the metrics document.
type budgetSection struct {
	LimitBytes   int64            `json:"limit_bytes"` // 0 = unlimited
	CurrentBytes int64            `json:"current_bytes"`
	PeakBytes    int64            `json:"peak_bytes"`
	Breakdown    map[string]int64 `json:"breakdown"` // per-tenant categories
}

// tenantSection is one tenant's slice of the metrics document: its id and
// the same structured report the CLIs emit as --stats-json, so per-tenant
// AMC, spill, dedup, server, and memory numbers are all addressable.
type tenantSection struct {
	ID     string           `json:"id"`
	Report placement.Report `json:"report"`
}

// metricsDoc is the GET /metrics (and --stats-json) document: the fleet's
// lifecycle counters, the global budget with its per-tenant breakdown, and
// one full report per warm tenant, in id order.
type metricsDoc struct {
	SchemaVersion int              `json:"schema_version"`
	Fleet         *telemetry.Fleet `json:"fleet"`
	Budget        budgetSection    `json:"budget"`
	Tenants       []tenantSection  `json:"tenants"`
}

// metrics assembles the fleet document.
func (s *server) metrics() metricsDoc {
	f := s.fleet
	doc := metricsDoc{
		SchemaVersion: telemetry.SchemaVersion,
		Fleet:         f.ftel,
		Budget: budgetSection{
			LimitBytes:   f.opts.MaxMem,
			CurrentBytes: f.acct.Current(),
			PeakBytes:    f.acct.Peak(),
			Breakdown:    f.acct.Breakdown(),
		},
		Tenants: []tenantSection{},
	}
	for _, t := range f.snapshotTenants() {
		doc.Tenants = append(doc.Tenants, tenantSection{ID: t.id, Report: t.eng.Report()})
	}
	return doc
}

// handleMetrics serves the fleet document. Each tenant's report serializes
// briefly with that tenant's in-flight batches (micro-batch scale), which
// is acceptable for a scrape endpoint.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics())
}

func (s *server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// shutdown is the graceful-drain sequence, run on SIGTERM/SIGINT: mark
// draining (new requests get 503), switch every tenant's batcher to
// immediate flush, then let the HTTP server wait out in-flight handlers —
// which now complete without the coalescing delay. No query accepted before
// the drain began is lost. The fleet itself (batcher close, cache purge,
// engine Close audits, two-level accountant drain) is closed by the caller
// afterwards via s.fleet.close().
func (s *server) shutdown(ctx context.Context, hs *http.Server) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	for _, t := range s.fleet.snapshotTenants() {
		t.batcher.Drain()
	}
	return hs.Shutdown(ctx)
}
