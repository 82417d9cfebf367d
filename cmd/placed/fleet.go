package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// tenant is one warm engine in the fleet: the engine itself (its accountant
// a child of the fleet's), its micro-batcher, its result cache, and its own
// telemetry sink — admission, coalescing, caching, and counters are all
// scoped per tree, so one tenant's pressure shows up in that tenant's 429s
// and that tenant's metrics section, never a neighbor's.
type tenant struct {
	id       string
	eng      *placement.Engine
	batcher  *placement.Batcher
	cache    *placement.ResultCache
	tel      *telemetry.Sink
	alphabet *seq.Alphabet
	width    int
	treeStr  string
	spec     string

	// Admission state, per tenant: the in-flight cap and the byte count it
	// guards. The reservation lives in the tenant engine's child accountant
	// (category "server-inflight"), so a TryAlloc must clear the per-engine
	// budget AND the fleet budget — global pressure surfaces as per-tenant
	// backpressure.
	inflightCap int64
	admitMu     sync.Mutex
	inflight    int64

	// inflightReqs counts requests currently inside handlePlace for this
	// tenant. Incremented under the fleet lock by lookup, so the eviction
	// path (which checks it under the same lock) can never tear down an
	// engine a request is about to use.
	inflightReqs atomic.Int64
	// lastUsed is the tenant's last-request wall clock in unix nanoseconds —
	// the victim tie-breaker (colder first).
	lastUsed atomic.Int64
}

// admit reserves bytes of in-flight query data against both the tenant cap
// and the two-level accountant, evicting cold cached results before
// refusing. The checks and the reservation are atomic under admitMu.
func (t *tenant) admit(bytes int64) bool {
	t.admitMu.Lock()
	defer t.admitMu.Unlock()
	if t.inflightCap > 0 && t.inflight+bytes > t.inflightCap {
		return false
	}
	acct := t.eng.Accountant()
	if !acct.TryAlloc("server-inflight", bytes) {
		if !t.cache.ReleaseHeadroom(bytes) || !acct.TryAlloc("server-inflight", bytes) {
			return false
		}
	}
	t.inflight += bytes
	return true
}

// release returns an admitted reservation.
func (t *tenant) release(bytes int64) {
	t.admitMu.Lock()
	defer t.admitMu.Unlock()
	t.inflight -= bytes
	t.eng.Accountant().Free("server-inflight", bytes)
}

// fleetOptions parameterize the engine registry.
type fleetOptions struct {
	// MaxMem is the global budget across every engine, cache, and in-flight
	// reservation (0 = unlimited). When a cold tree's planned footprint does
	// not fit, the controller reclaims from warm tenants before refusing.
	MaxMem int64
	// BaseConfig is the per-engine config template; the fleet fills MaxMem
	// (from the catalog entry), Telemetry, ParentAccountant/ParentCategory,
	// and disambiguates SpillPath per tenant.
	BaseConfig placement.Config
	// CacheBytes is each tenant's result-cache capacity (0 = disabled).
	CacheBytes int64
	// InflightBytes overrides each tenant's derived admission cap (0 =
	// derive one chunk's worth from the tenant's plan, or unlimited when the
	// tenant has no per-engine budget).
	InflightBytes int64
	// MaxBatch bounds every tenant's micro-batches.
	MaxBatch int
}

// errNoHeadroom marks a build refused because reclaiming could not fit the
// new engine under the global budget — backpressure (429), not failure.
var errNoHeadroom = errors.New("fleet: global memory budget exhausted")

// fleet is the engine registry: a catalog of trees, a map of warm tenants,
// one global accountant every tenant's accountant is a child of, and the
// pressure controller that shrinks, demotes, or evicts warm engines to fit
// cold ones.
type fleet struct {
	cat  *catalog
	acct *memacct.Accountant
	ftel *telemetry.Fleet
	opts fleetOptions

	// mu guards tenants. buildMu serializes construction and reclaim — the
	// slow path — so two cold requests cannot double-build or fight over
	// victims; the fast lookup path never touches it.
	mu      sync.Mutex
	tenants map[string]*tenant
	buildMu sync.Mutex

	// auditErr accumulates invariant failures from mid-run engine evictions
	// (a tear-down audit has no request to fail); shutdown surfaces them.
	auditMu  sync.Mutex
	auditErr error
}

func newFleet(cat *catalog, opts fleetOptions) *fleet {
	acct := memacct.NewAccountant()
	if opts.MaxMem > 0 {
		acct.SetLimit(opts.MaxMem)
	}
	return &fleet{
		cat:     cat,
		acct:    acct,
		ftel:    &telemetry.Fleet{},
		opts:    opts,
		tenants: make(map[string]*tenant),
	}
}

// recordAuditErr stashes an eviction-path audit failure for shutdown.
func (f *fleet) recordAuditErr(err error) {
	if err == nil {
		return
	}
	f.auditMu.Lock()
	f.auditErr = errors.Join(f.auditErr, err)
	f.auditMu.Unlock()
}

// lookup returns the warm tenant for id with its in-flight count already
// raised (the caller must release), or nil.
func (f *fleet) lookup(id string) *tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[id]
	if t != nil {
		t.inflightReqs.Add(1)
		t.lastUsed.Store(time.Now().UnixNano())
	}
	return t
}

// release undoes lookup's in-flight hold.
func (f *fleet) release(t *tenant) { t.inflightReqs.Add(-1) }

// get resolves id to a warm tenant, building the engine on first use. The
// returned tenant has its in-flight count raised; the caller must release.
// A nil tenant comes with errNoHeadroom (429) or a load/construction error
// (500); unknown ids are the caller's to reject before calling.
func (f *fleet) get(id string) (*tenant, error) {
	if t := f.lookup(id); t != nil {
		return t, nil
	}
	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	if t := f.lookup(id); t != nil { // built while we waited
		return t, nil
	}
	t, err := f.build(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.tenants[id] = t
	t.inflightReqs.Add(1)
	t.lastUsed.Store(time.Now().UnixNano())
	f.ftel.SetWarm(len(f.tenants))
	f.mu.Unlock()
	return t, nil
}

// build constructs one tenant under buildMu: load the reference, plan the
// engine's footprint, make room under the global budget (reclaiming from
// warm tenants if needed), then construct for real.
func (f *fleet) build(id string) (*tenant, error) {
	entry := f.cat.get(id)
	if entry == nil {
		return nil, fmt.Errorf("fleet: unknown tree %q", id)
	}
	ref, err := entry.load()
	if err != nil {
		return nil, fmt.Errorf("tree %q: %w", id, err)
	}
	part, err := ref.Partition()
	if err != nil {
		return nil, fmt.Errorf("tree %q: %w", id, err)
	}

	cfg := f.opts.BaseConfig
	cfg.MaxMem = entry.maxMem
	cfg.Telemetry = telemetry.NewSink()
	cfg.ParentAccountant = f.acct
	cfg.ParentCategory = "tenant:" + id
	if cfg.SpillPath != "" && len(f.cat.order) > 1 {
		// One spill file per tenant: an explicit path would otherwise be
		// truncated by every engine sharing it.
		cfg.SpillPath = cfg.SpillPath + "." + id
	}

	plan, err := placement.PlanFor(part, ref.Tree, cfg)
	if err != nil {
		return nil, fmt.Errorf("tree %q: %w", id, err)
	}
	if err := f.ensureHeadroom(plan.TotalBytes+f.opts.CacheBytes, id); err != nil {
		f.ftel.RejectBuild()
		return nil, err
	}

	eng, err := placement.New(part, ref.Tree, cfg)
	if err != nil {
		return nil, fmt.Errorf("tree %q: %w", id, err)
	}
	treeStr := jplace.TreeString(ref.Tree)
	var cache *placement.ResultCache
	if f.opts.CacheBytes > 0 {
		refKey := placement.ReferenceKey(treeStr, ref.Spec)
		cache = placement.NewResultCache(eng.Accountant(), f.opts.CacheBytes, refKey, cfg.Telemetry.DedupGroup())
	}
	t := &tenant{
		id:       id,
		eng:      eng,
		cache:    cache,
		tel:      cfg.Telemetry,
		alphabet: ref.Alphabet,
		width:    ref.MSA.Width(),
		treeStr:  treeStr,
		spec:     ref.Spec,
	}
	t.batcher = placement.NewBatcher(eng, placement.BatcherConfig{
		MaxBatch:  f.opts.MaxBatch,
		Telemetry: cfg.Telemetry.ServerGroup(),
	})
	switch {
	case f.opts.InflightBytes > 0:
		t.inflightCap = f.opts.InflightBytes
	case entry.maxMem > 0:
		// One chunk's worth of encoded query bytes, half the planner's
		// doubled per-chunk reservation (see the single-tree serving path).
		t.inflightCap = int64(plan.ChunkSize) * int64(ref.MSA.Width()) * 4
	}
	f.ftel.Build()
	return t, nil
}

// leverKind is one rung of the reclaim escalation ladder.
type leverKind int

const (
	leverShrink leverKind = iota // halve the slot pool (not below the floor)
	leverDemote                  // demote every CLV to the spill tier, pool to floor
	leverEvict                   // tear the engine down entirely
)

func (k leverKind) String() string {
	switch k {
	case leverShrink:
		return "shrink"
	case leverDemote:
		return "demote"
	default:
		return "evict"
	}
}

// lever is one applicable (victim, action) pair with the controller's cost
// model attached: bytes it would free and the estimated nanoseconds of
// future work re-warming costs, both from measured telemetry.
type lever struct {
	t     *tenant
	kind  leverKind
	freed int64
	cost  float64 // ns to get the freed state back
}

// costPerByte ranks levers; uncalibrated rates read as optimistic zeros,
// matching the hybrid spill policy's convention.
func (l lever) costPerByte() float64 {
	if l.freed <= 0 {
		return 0
	}
	return l.cost / float64(l.freed)
}

// levers enumerates the reclaim actions available on victim t, costed with
// the telemetry the engine already measures: reload bandwidth when the
// spill tier is calibrated, recompute cost per leaf otherwise, and the
// measured construction time (CLV precompute + lookup build) for a full
// eviction.
func (f *fleet) levers(t *tenant) []lever {
	var out []lever
	stats := t.eng.Stats()
	rs := t.eng.Reclaim() // the zero picture of a closed engine offers no lever
	resBytes := int64(rs.ResidentCLVs) * rs.SlotBytes
	// rewarmNS estimates re-materializing what a lever displaces: disk
	// reloads when the tier is on, subtree recomputation otherwise.
	var rewarmNS float64
	if rs.SpillEnabled {
		rewarmNS = float64(resBytes) * rs.ReloadNsPerByte
	} else {
		rewarmNS = float64(rs.ResidentLeafWork) * rs.RecomputeNsPerLeaf
	}
	if half := rs.Slots / 2; half > rs.MinSlots && half < rs.Slots {
		out = append(out, lever{t: t, kind: leverShrink,
			freed: int64(rs.Slots-half) * rs.SlotBytes,
			cost:  rewarmNS / 2, // roughly half the residents displaced
		})
	}
	if rs.Slots > rs.MinSlots {
		out = append(out, lever{t: t, kind: leverDemote,
			freed: int64(rs.Slots-rs.MinSlots) * rs.SlotBytes,
			cost:  rewarmNS,
		})
	}
	out = append(out, lever{t: t, kind: leverEvict,
		freed: t.eng.Accountant().Current(),
		cost:  float64(stats.Precompute+stats.LookupBuild) + float64(stats.CLVStats.RecomputeLeafWork),
	})
	return out
}

// apply executes one lever on t, the ladder's one executor: the controller
// (ensureHeadroom) and /admin/reclaim (forceLever) both go through it. It
// returns the bytes actually freed (measured on the global accountant, not
// estimated). A lever that did not take effect — Resize or Demote failed, a
// request holds the tenant — returns the reason and is not counted. Every
// engine has a slot pool, so shrink and demote apply to reference-mode
// tenants too. Caller holds buildMu.
func (f *fleet) apply(t *tenant, kind leverKind) (int64, error) {
	before := f.acct.Current()
	var applied *telemetry.Counter
	var err error
	switch kind {
	case leverShrink:
		applied = &f.ftel.EnginesShrunk
		err = t.eng.Resize(t.eng.Stats().Slots / 2)
	case leverDemote:
		applied = &f.ftel.EnginesDemoted
		_, err = t.eng.Demote()
	case leverEvict:
		applied = &f.ftel.EnginesEvicted
		if !f.evict(t) {
			err = fmt.Errorf("tree %q has requests in flight", t.id)
		}
	}
	if err != nil {
		return 0, err
	}
	freed := before - f.acct.Current()
	f.ftel.Reclaimed(applied, freed)
	return freed, nil
}

// evict tears one tenant down: removed from the map, batcher closed, cache
// purged, engine closed with its audits recorded. It reports false, leaving
// the tenant untouched, when a request holds it or it is no longer the warm
// tenant of its id. Caller holds buildMu.
func (f *fleet) evict(t *tenant) bool {
	f.mu.Lock()
	if t.inflightReqs.Load() != 0 || f.tenants[t.id] != t {
		f.mu.Unlock()
		return false // a request got in; the lever loop will look elsewhere
	}
	delete(f.tenants, t.id)
	f.ftel.SetWarm(len(f.tenants))
	f.mu.Unlock()
	t.batcher.Close()
	t.cache.Purge()
	if err := t.eng.Close(); err != nil {
		f.recordAuditErr(fmt.Errorf("evicting tenant %q: %w", t.id, err))
	}
	return true
}

// ensureHeadroom makes the global budget admit need more bytes, applying
// reclaim levers on idle warm tenants — cheapest measured cost per freed
// byte first, colder tenant on ties — until the headroom exists or the
// ladder is exhausted (errNoHeadroom). Caller holds buildMu.
func (f *fleet) ensureHeadroom(need int64, forID string) error {
	for {
		if room := f.acct.Headroom(); room < 0 || room >= need {
			return nil
		}
		f.mu.Lock()
		var victims []*tenant
		for _, t := range f.tenants {
			if t.id != forID && t.inflightReqs.Load() == 0 {
				victims = append(victims, t)
			}
		}
		f.mu.Unlock()
		var avail []lever
		for _, v := range victims {
			avail = append(avail, f.levers(v)...)
		}
		if len(avail) == 0 {
			return errNoHeadroom
		}
		sort.Slice(avail, func(i, j int) bool {
			ci, cj := avail[i].costPerByte(), avail[j].costPerByte()
			if ci != cj {
				return ci < cj
			}
			if avail[i].kind != avail[j].kind {
				return avail[i].kind < avail[j].kind // gentler lever first
			}
			ui, uj := avail[i].t.lastUsed.Load(), avail[j].t.lastUsed.Load()
			if ui != uj {
				return ui < uj // colder tenant first
			}
			return avail[i].t.id < avail[j].t.id
		})
		// Take the cheapest lever that frees something; one that does not
		// (engine at its floor, or a request arrived since the victims were
		// listed) drops to the next, and an exhausted ladder gives up.
		applied := false
		for _, l := range avail {
			if freed, err := f.apply(l.t, l.kind); err == nil && freed > 0 {
				applied = true
				break
			}
		}
		if !applied {
			return errNoHeadroom
		}
	}
}

// forceLever applies one named reclaim lever to a warm tenant — the
// /admin/reclaim endpoint behind the differential suite and the CI identity
// sweeps, which need fleet pressure as a deterministic event rather than a
// racing side effect. Returns the bytes freed.
func (f *fleet) forceLever(id string, kind leverKind) (int64, error) {
	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	f.mu.Lock()
	t := f.tenants[id]
	f.mu.Unlock()
	if t == nil {
		return 0, fmt.Errorf("tree %q is not warm", id)
	}
	return f.apply(t, kind)
}

// snapshotTenants returns the warm tenants in id order.
func (f *fleet) snapshotTenants() []*tenant {
	f.mu.Lock()
	out := make([]*tenant, 0, len(f.tenants))
	for _, t := range f.tenants {
		out = append(out, t)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// close drains and tears down every tenant (each batcher's Close waits out
// its last batch before the engine closes), then audits the global accountant:
// with every child closed, the fleet level must be at zero too — the
// two-level drain the acceptance gate checks.
func (f *fleet) close() error {
	var errs []error
	for _, t := range f.snapshotTenants() {
		t.batcher.Close()
		t.cache.Purge()
		if err := t.eng.Close(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: %w", t.id, err))
		}
	}
	f.mu.Lock()
	f.tenants = make(map[string]*tenant)
	f.ftel.SetWarm(0)
	f.mu.Unlock()
	if err := f.acct.Err(); err != nil {
		errs = append(errs, err)
	}
	if err := f.acct.AssertDrained(); err != nil {
		errs = append(errs, fmt.Errorf("fleet accountant: %w", err))
	}
	f.auditMu.Lock()
	if f.auditErr != nil {
		errs = append(errs, f.auditErr)
	}
	f.auditMu.Unlock()
	return errors.Join(errs...)
}
