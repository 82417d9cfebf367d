package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"phylomem/internal/clvstore"
	"phylomem/internal/faultinject"
	"phylomem/internal/parallel"
	"phylomem/internal/phylo"
	"phylomem/internal/tree"
)

// ErrNoSlots is returned when a CLV must be materialized but every slot is
// pinned. It indicates the slot pool is smaller than the tree's minimum
// requirement plus the caller's pins.
var ErrNoSlots = errors.New("core: no unpinned slot available")

// ErrInvariant marks a violation of the manager's internal invariants
// (slotOf/clvOf bijection, pin bookkeeping). It indicates a bug in the slot
// machinery, not bad input; callers should abort rather than retry. epang
// maps it (and memacct.ErrNotDrained) to a distinct exit code.
var ErrInvariant = errors.New("core: slot-map invariant violation")

const (
	noSlot = int32(-1)
	noCLV  = int32(-1)
)

// recomputeSampleEvery is how often materialize times a recompute: the first
// and then one in this many. The rate needs only a sample, and a clock pair
// costs a visible share of a small recompute.
const recomputeSampleEvery = 8

// Stats counts the manager's activity. Recomputes are UpdateCLVPooled calls,
// i.e. the extra work the memory/runtime trade-off pays for; Hits are
// accesses satisfied by an already-slotted CLV (not counted while Filled).
// This is the only copy of each number; every report is rendered from a
// Stats value.
type Stats struct {
	Hits       uint64
	Recomputes uint64
	Evictions  uint64
	// VictimsExamined counts the unpinned resident CLVs the eviction search
	// of allocSlot compared by next need, summed over its evictions: the
	// search's cost, about the slot count per eviction.
	VictimsExamined uint64
	// RecomputeLeafWork accumulates the subtree leaf count of every
	// recomputed CLV — a machine-independent proxy for recomputation cost.
	RecomputeLeafWork uint64
	// SpillWrites counts eviction victims serialized into the spill store;
	// SpillReloads counts materializations satisfied by reading such a
	// record back instead of recomputing (neither a Hit nor a Recompute);
	// SpillErrors counts spill I/O failures the manager degraded around
	// (write failure → plain discard, read failure → recompute). The byte
	// totals are Writes/Reloads times the record size; ReloadLeafWorkSaved
	// accumulates the subtree leaf count of every reloaded CLV — the
	// recomputation work the disk tier absorbed, directly comparable to
	// RecomputeLeafWork.
	SpillWrites         uint64
	SpillReloads        uint64
	SpillErrors         uint64
	SpillBytesWritten   uint64
	SpillBytesReloaded  uint64
	ReloadLeafWorkSaved uint64
	// SpillWriteTime and SpillReloadTime are the wall time of the successful
	// store writes and reads (the latter is the hybrid policy's bandwidth
	// measurement). PinHighWater is the peak number of simultaneously pinned
	// slots, which the log2(n)+2 slot guarantee bounds. SpilledEntries is a
	// level, not an event count: the CLVs currently reloadable from the store.
	SpillWriteTime  time.Duration
	SpillReloadTime time.Duration
	PinHighWater    int
	SpilledEntries  int
}

// Manager is the Active Management of CLVs: it maps the tree's 3(n-2) global
// inner CLVs onto a fixed pool of physical slots, recomputing evicted CLVs on
// demand via slot-constrained Felsenstein pruning.
//
// Manager is not safe for concurrent use; the placement engine serializes
// all access through its branch-block precompute goroutine, matching the
// paper's parallelization (Section IV).
type Manager struct {
	tr       *tree.Tree
	part     *phylo.Partition
	strategy Strategy

	slots     int
	clvData   []float64 // slots × CLVLen
	scaleData []int32   // slots × ScaleLen

	slotOf []int32 // global CLV index → slot (or noSlot); the paper's first map
	clvOf  []int32 // slot → global CLV index (or noCLV); the paper's second map
	pins   []int32 // per slot pin count

	// resident is the set of slotted CLV indices as a bitmap, so eviction
	// enumerates its candidates in ascending CLV order without sorting;
	// freeSlots counts the empty slots, so a full pool skips the free-slot
	// scan. Both are maintained by occupy/vacate and audited by
	// CheckInvariants.
	resident  []uint64
	freeSlots int
	cands     []int           // eviction candidate buffer, reused
	evictCtx  EvictionContext // handed to the strategy, reused

	lastAccess []uint64 // per CLV index
	cost       []int    // per CLV index: subtree leaf count
	tick       uint64

	// Kernel scratch (tip LUTs, pair LUT) and transition-matrix buffers
	// reused across updates; safe because Manager is single-threaded.
	sc     *phylo.Scratch
	pa, pb []float64

	sweep sweepState

	stats Stats

	// pinnedNow tracks the number of slots with a non-zero pin count so the
	// pin high-water mark costs O(1) per pin transition instead of an
	// O(slots) scan.
	pinnedNow int

	// maxSlots is the largest pool size this manager has ever had; Resize can
	// shrink m.slots below it, so audits of historical high-water marks (pin
	// concurrency) compare against this, not the current pool.
	maxSlots int

	// pool, when non-nil, runs the across-site parallel update kernel during
	// recomputation (the paper's Fig. 7 experiment).
	pool *parallel.Pool

	filled     bool // see Filled; the first vacate clears it for good
	fillLevels int  // see FillLevels

	// Kernel time and subtree leaf count of the timed CLV computations (every
	// CLV of the fill, summed across its workers, and one recompute in
	// recomputeSampleEvery, the first included): their ratio is the measured
	// recompute rate.
	recomputeNS   int64
	timedLeafWork uint64

	// Spill tier (nil spillStore = disabled, the classic discard-only AMC).
	// spilled[idx] marks CLVs with a valid, reloadable record in the store;
	// stats.SpilledEntries counts them (audited by CheckInvariants).
	spillStore  clvstore.Store
	spillPolicy SpillPolicy
	spilled     []bool
	recBytes    int64
	spillCtx    SpillContext
}

// Config parameterizes a Manager.
type Config struct {
	// Slots is the number of physical CLV slots. It must be at least
	// Tree.MinSlots() and at most the number of inner CLVs (values above that
	// are clamped).
	Slots int
	// Strategy breaks eviction ties; nil selects CostAge, the one rule the
	// placement engine and pplacer run. It is a seam for tests' adversarial
	// rules and the benchmark harness, not a user option.
	Strategy Strategy
	// Pool enables across-site parallel recomputes when non-nil with more
	// than one worker. The manager only submits to it; it does not own it.
	Pool *parallel.Pool
	// FillPool spreads the fill's independent CLVs over its workers
	// (phylo.FillCLVs); nil fills on the calling goroutine. Recomputes never
	// use it. The manager does not own it.
	FillPool *parallel.Pool
	// SpillStore, when non-nil, enables the tiered eviction path: victims
	// the SpillPolicy approves are serialized into the store and reloaded
	// instead of recomputed. The store must be sized for the tree's inner
	// CLV count with the partition's record geometry. The manager only
	// writes and reads records; it does not own or Close the store.
	SpillStore clvstore.Store
	// SpillPolicy chooses per-victim between discard and spill; nil with a
	// SpillStore selects HybridSpill. Ignored without a store.
	SpillPolicy SpillPolicy
	// Fill computes every inner CLV into slot i = CLV i at construction
	// (phylo.FillCLVs over FillPool; Slots is then the inner-CLV count): the
	// reference mode. It counts no recomputes, leaf work or hits, but
	// calibrates the recompute rate with the fill's kernel time summed over
	// its CLVs, so the rate does not depend on FillPool's size.
	Fill bool
}

// NewManager creates a slot manager for the given partition and tree.
func NewManager(part *phylo.Partition, tr *tree.Tree, cfg Config) (*Manager, error) {
	if err := part.CheckTreeCompatible(tr); err != nil {
		return nil, err
	}
	slots := cfg.Slots
	if max := tr.NumInnerCLVs(); slots > max || cfg.Fill {
		slots = max
	}
	if min := tr.MinSlots(); slots < min {
		return nil, fmt.Errorf("core: %d slots below the minimum %d required for this tree (log2(n)+2 = %d)",
			slots, min, tree.LogNBound(tr.NumLeaves()))
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = CostAge{}
	}
	nclv := tr.NumInnerCLVs()
	m := &Manager{
		tr:         tr,
		part:       part,
		strategy:   strategy,
		slots:      slots,
		maxSlots:   slots,
		clvData:    make([]float64, slots*part.CLVLen()),
		scaleData:  make([]int32, slots*part.ScaleLen()),
		slotOf:     make([]int32, nclv),
		clvOf:      make([]int32, slots),
		pins:       make([]int32, slots),
		resident:   make([]uint64, (nclv+63)/64),
		freeSlots:  slots,
		cands:      make([]int, 0, slots),
		sweep:      newSweepState(tr),
		lastAccess: make([]uint64, nclv),
		cost:       make([]int, nclv),
		sc:         part.NewScratch(),
		pool:       cfg.Pool,
	}
	m.pa = m.sc.P(0)
	m.pb = m.sc.P(1)
	for i := range m.slotOf {
		m.slotOf[i] = noSlot
	}
	for i := range m.clvOf {
		m.clvOf[i] = noCLV
	}
	counts := tr.SubtreeLeafCounts()
	for i := 0; i < nclv; i++ {
		m.cost[i] = counts[tr.DirOfCLV(i)]
	}
	m.evictCtx = EvictionContext{Cost: m.cost, LastAccess: m.lastAccess}
	if cfg.SpillStore != nil {
		m.spillStore = cfg.SpillStore
		m.spillPolicy = cfg.SpillPolicy
		if m.spillPolicy == nil {
			m.spillPolicy = HybridSpill{}
		}
		m.spilled = make([]bool, nclv)
		m.recBytes = int64(part.CLVLen())*8 + int64(part.ScaleLen())*4
	}
	if cfg.Fill {
		var kernel time.Duration
		m.fillLevels, kernel = phylo.FillCLVs(part, tr, m.clvData, m.scaleData, cfg.FillPool)
		m.recomputeNS += int64(kernel)
		for i := int32(0); i < int32(nclv); i++ {
			m.occupy(i, i)
			m.timedLeafWork += uint64(m.cost[i])
		}
		m.filled = true
	}
	return m, nil
}

// Filled reports whether the pool has held every inner CLV since the fill:
// then no slot is ever rewritten, so operands stay valid after Release.
func (m *Manager) Filled() bool { return m.filled }

// FillLevels returns the number of dependency levels the construction-time
// fill ran (phylo.FillCLVs), or 0 when the manager was not filled.
func (m *Manager) FillLevels() int { return m.fillLevels }

// Slots returns the slot-pool size.
func (m *Manager) Slots() int { return m.slots }

// Bytes returns the slot pool's memory footprint.
func (m *Manager) Bytes() int64 { return int64(m.slots) * m.part.CLVBytes() }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// PinnedSlots returns the number of slots with a non-zero pin count. It is
// O(1): the count is maintained on every pin transition (CheckInvariants
// verifies it against a full scan of the pin array).
func (m *Manager) PinnedSlots() int { return m.pinnedNow }

// incPin adds one pin to a slot, maintaining the pinned-slot count and its
// high-water mark on the 0→1 transition.
func (m *Manager) incPin(slot int32) {
	if m.pins[slot] == 0 {
		m.pinnedNow++
		if m.pinnedNow > m.stats.PinHighWater {
			m.stats.PinHighWater = m.pinnedNow
		}
	}
	m.pins[slot]++
}

// decPin removes one pin from a slot, maintaining the pinned-slot count on
// the 1→0 transition. The caller has already checked the count is non-zero.
func (m *Manager) decPin(slot int32) {
	m.pins[slot]--
	if m.pins[slot] == 0 {
		m.pinnedNow--
	}
}

func (m *Manager) view(slot int32) ([]float64, []int32) {
	cl, sl := m.part.CLVLen(), m.part.ScaleLen()
	return m.clvData[int(slot)*cl : (int(slot)+1)*cl], m.scaleData[int(slot)*sl : (int(slot)+1)*sl]
}

func (m *Manager) operandOf(d tree.Dir) phylo.Operand {
	if u := m.tr.Tail(d); u.IsLeaf() {
		return phylo.TipOperand(m.part.TipCodes(u.ID))
	}
	slot := m.slotOf[m.tr.CLVIndex(d)]
	if slot == noSlot {
		panic("core: operandOf called for unslotted CLV")
	}
	clv, scale := m.view(slot)
	return phylo.CLVOperand(clv, scale)
}

// pinDir increments the pin count of d's slot (leaf tails are no-ops).
func (m *Manager) pinDir(d tree.Dir) {
	idx := m.tr.CLVIndex(d)
	if idx < 0 {
		return
	}
	slot := m.slotOf[idx]
	if slot == noSlot {
		panic("core: pin of unslotted CLV")
	}
	m.incPin(slot)
}

// unpinDir decrements the pin count of d's slot.
func (m *Manager) unpinDir(d tree.Dir) {
	idx := m.tr.CLVIndex(d)
	if idx < 0 {
		return
	}
	slot := m.slotOf[idx]
	if slot == noSlot {
		panic("core: unpin of unslotted CLV")
	}
	if m.pins[slot] == 0 {
		panic("core: unpin of unpinned slot")
	}
	m.decPin(slot)
}

// occupy records CLV idx as entering the empty slot s.
func (m *Manager) occupy(idx, s int32) {
	m.clvOf[s] = idx
	m.slotOf[idx] = s
	m.resident[idx>>6] |= 1 << (idx & 63)
	m.freeSlots--
}

// vacate empties slot s, which holds CLV idx.
func (m *Manager) vacate(idx, s int32) {
	m.slotOf[idx] = noSlot
	m.clvOf[s] = noCLV
	m.resident[idx>>6] &^= 1 << (idx & 63)
	m.freeSlots++
	m.filled = false
}

// allocSlot finds a slot for CLV index idx: a free slot if available,
// otherwise the slot of an eviction victim. Among the unpinned slotted CLVs,
// those the declared sweep needs soonest are kept (see BeginSweep); the
// strategy picks the victim among the ones tied for the farthest next need.
// With no sweep declared every candidate ties and the strategy alone decides.
func (m *Manager) allocSlot(idx int32) (int32, error) {
	if err := faultinject.Check(faultinject.PointAllocSlot); err != nil {
		return noSlot, fmt.Errorf("%w: injected for CLV %d: %w", ErrNoSlots, idx, err)
	}
	if m.freeSlots > 0 {
		for s := int32(0); s < int32(m.slots); s++ {
			if m.clvOf[s] == noCLV {
				m.occupy(idx, s)
				return s, nil
			}
		}
	}
	candidates := m.cands[:0]
	farthest := int32(-1)
	for w, word := range m.resident {
		for ; word != 0; word &= word - 1 {
			c := w<<6 | bits.TrailingZeros64(word)
			if m.pins[m.slotOf[c]] != 0 {
				continue
			}
			m.stats.VictimsExamined++
			need := m.nextNeed(c)
			if need > farthest {
				farthest = need
				candidates = candidates[:0]
			}
			if need == farthest {
				candidates = append(candidates, c)
			}
		}
	}
	m.cands = candidates
	if len(candidates) == 0 {
		return noSlot, fmt.Errorf("%w: all %d slots pinned", ErrNoSlots, m.slots)
	}
	m.evictCtx.Tick = m.tick
	victim := m.strategy.Victim(candidates, &m.evictCtx)
	vslot := m.slotOf[victim]
	if vslot == noSlot || m.pins[vslot] != 0 || m.clvOf[vslot] != int32(victim) {
		return noSlot, fmt.Errorf("core: strategy %q returned invalid victim %d", m.strategy.Name(), victim)
	}
	m.maybeSpill(victim, vslot)
	m.stats.Evictions++
	m.vacate(int32(victim), vslot)
	m.occupy(idx, vslot)
	return vslot, nil
}

// markSpilled / dropSpilled maintain the spilled set and its count together
// so they can never drift apart.
func (m *Manager) markSpilled(idx int) {
	if !m.spilled[idx] {
		m.spilled[idx] = true
		m.stats.SpilledEntries++
	}
}

func (m *Manager) dropSpilled(idx int) {
	if m.spilled[idx] {
		m.spilled[idx] = false
		m.stats.SpilledEntries--
	}
}

// measuredRates returns this run's recompute cost per subtree leaf and reload
// cost per byte, each zero until its first measurement.
func (m *Manager) measuredRates() (recomputeNsPerLeaf, reloadNsPerByte float64) {
	if m.timedLeafWork > 0 {
		recomputeNsPerLeaf = float64(m.recomputeNS) / float64(m.timedLeafWork)
	}
	if m.stats.SpillBytesReloaded > 0 {
		reloadNsPerByte = float64(m.stats.SpillReloadTime) / float64(m.stats.SpillBytesReloaded)
	}
	return recomputeNsPerLeaf, reloadNsPerByte
}

// spillContext exposes this run's measured costs to the policy, reusing one
// context struct so the per-eviction decision allocates nothing.
func (m *Manager) spillContext() *SpillContext {
	ctx := &m.spillCtx
	ctx.Cost = m.cost
	ctx.RecordBytes = m.recBytes
	ctx.RecomputeNsPerLeaf, ctx.ReloadNsPerByte = m.measuredRates()
	return ctx
}

// maybeSpill runs the spill tier's write side on an eviction victim whose
// slot data is still intact: if the policy approves, the record is
// serialized before the slot is reused. A record already on disk stays valid
// (reference CLVs never change between invalidations), so re-evicting a
// reloaded CLV writes nothing. Write failures degrade to a plain discard —
// spill I/O must never fail a run.
func (m *Manager) maybeSpill(victim int, vslot int32) {
	if m.spillStore == nil || m.spilled[victim] {
		return
	}
	if !m.spillPolicy.ShouldSpill(victim, m.spillContext()) {
		return
	}
	m.spillRecord(victim, vslot)
}

// spillRecord serializes one slotted CLV into the store unconditionally (no
// policy consultation) — the shared write side of maybeSpill's per-eviction
// decision and DemoteAll's forced demotion. Write failures degrade to a
// plain discard, exactly like maybeSpill.
func (m *Manager) spillRecord(victim int, vslot int32) {
	if m.spillStore == nil || m.spilled[victim] {
		return
	}
	vclv, vscale := m.view(vslot)
	start := time.Now()
	err := faultinject.Check(faultinject.PointSpillWrite)
	if err == nil {
		err = m.spillStore.Write(victim, vclv, vscale)
	}
	if err != nil {
		m.stats.SpillErrors++
		return
	}
	m.stats.SpillWrites++
	m.stats.SpillBytesWritten += uint64(m.recBytes)
	m.stats.SpillWriteTime += time.Since(start)
	m.markSpilled(victim)
}

// tryReload attempts to satisfy a miss from the spill store: it allocates a
// slot and reads the record back, skipping the entire child-first subtree
// traversal a recomputation would need. It reports done=true when the CLV is
// slotted and pinned for the caller. On any failure it restores the plain
// miss state and reports done=false so materialize falls back to
// recomputation: an unusable record is dropped (read failure), and an
// allocation failure defers to the normal path's unwinding.
func (m *Manager) tryReload(idx int) (done bool, err error) {
	slot, err := m.allocSlot(int32(idx))
	if err != nil {
		return false, nil
	}
	m.incPin(slot)
	dst, dstScale := m.view(slot)
	start := time.Now()
	rerr := faultinject.Check(faultinject.PointSpillRead)
	if rerr == nil {
		rerr = m.spillStore.Read(idx, dst, dstScale)
	}
	if rerr != nil {
		m.dropSpilled(idx)
		m.stats.SpillErrors++
		m.decPin(slot)
		m.vacate(int32(idx), slot)
		return false, nil
	}
	m.stats.SpillReloadTime += time.Since(start)
	m.stats.SpillReloads++
	m.stats.SpillBytesReloaded += uint64(m.recBytes)
	m.stats.ReloadLeafWorkSaved += uint64(m.cost[idx])
	m.tick++
	m.lastAccess[idx] = m.tick
	return true, nil
}

// materialize ensures d's CLV is slotted and pinned, recomputing any missing
// dependencies under the slot constraint. On success the slot holds one
// additional pin owned by the caller.
//
// Dependencies are materialized just-in-time, depth-first, heavier
// (Sethi–Ullman) child first: a dependency is pinned only from the moment it
// is (re)computed or found slotted until the moment its parent consumes it.
// This keeps the peak number of simultaneously pinned slots at exactly the
// Sethi–Ullman requirement of d, which is what makes the log2(n)+2 slot
// guarantee hold. Already-slotted CLVs that the traversal has not reached
// yet remain evictable; if the strategy evicts one before it is reached, it
// is simply recomputed (a performance effect, never a correctness one).
func (m *Manager) materialize(d tree.Dir) error {
	idx := m.tr.CLVIndex(d)
	if idx < 0 {
		return nil // leaf: tips are free
	}
	m.tick++
	if slot := m.slotOf[idx]; slot != noSlot {
		if !m.filled {
			m.stats.Hits++
		}
		m.lastAccess[idx] = m.tick
		m.incPin(slot)
		return nil
	}
	// Spill tier: a valid record on disk makes the whole child-first subtree
	// traversal unnecessary — reload it into a fresh slot instead.
	if m.spillStore != nil && m.spilled[idx] {
		if done, err := m.tryReload(idx); done || err != nil {
			return err
		}
	}
	a, b := m.tr.Children(d)
	su := m.tr.SlotRequirements()
	if su[b] > su[a] {
		a, b = b, a
	}
	if err := m.materialize(a); err != nil {
		return err
	}
	if err := m.materialize(b); err != nil {
		m.unpinDir(a)
		return err
	}
	slot, err := m.allocSlot(int32(idx))
	if err != nil {
		m.unpinDir(a)
		m.unpinDir(b)
		return err
	}
	m.incPin(slot) // owned by the caller from here on
	dst, dstScale := m.view(slot)
	m.part.FillP(m.pa, m.tr.EdgeOf(a).Length)
	m.part.FillP(m.pb, m.tr.EdgeOf(b).Length)
	var start time.Time
	timed := m.stats.Recomputes%recomputeSampleEvery == 0
	if timed {
		start = time.Now()
	}
	m.part.UpdateCLVPooled(dst, dstScale, m.operandOf(a), m.operandOf(b), m.pa, m.pb, m.pool, m.sc)
	if timed {
		m.recomputeNS += int64(time.Since(start))
		m.timedLeafWork += uint64(m.cost[idx])
	}
	m.tick++
	m.lastAccess[idx] = m.tick
	m.stats.Recomputes++
	m.stats.RecomputeLeafWork += uint64(m.cost[idx])
	// The children have been consumed: release the pins materialize took.
	m.unpinDir(a)
	m.unpinDir(b)
	return nil
}

// Acquire returns the operand for d, materializing (recomputing or
// reloading) it if needed, and pins it until the matching Release. A tip's
// operand is its codes and takes no pin.
func (m *Manager) Acquire(d tree.Dir) (phylo.Operand, error) {
	if m.tr.Tail(d).IsLeaf() {
		return phylo.TipOperand(m.part.TipCodes(m.tr.Tail(d).ID)), nil
	}
	if err := m.materialize(d); err != nil {
		return phylo.Operand{}, err
	}
	return m.operandOf(d), nil
}

// Release declares the operand of d no longer in use: it drops the pin taken
// by Acquire.
func (m *Manager) Release(d tree.Dir) {
	if m.tr.Tail(d).IsLeaf() {
		return
	}
	m.unpinDir(d)
}

// CheckInvariants audits the slot maps and pin bookkeeping: slotOf and
// clvOf must be mutually inverse partial bijections, every stored slot and
// CLV index must be in range, pin counts must be non-negative, an empty
// slot must carry no pins, the pin high-water must not exceed the largest
// pool the manager ever had, and the spilled-entries level must equal the
// spilled set. It returns an ErrInvariant-wrapped error naming
// the first violation. The placement engine runs this (plus a zero-pin
// check) from Close, so a corrupted run fails loudly at shutdown instead of
// silently producing wrong CLVs on the next chunk.
func (m *Manager) CheckInvariants() error {
	for idx, s := range m.slotOf {
		if bit := m.resident[idx>>6]>>(uint(idx)&63)&1 == 1; bit != (s != noSlot) {
			return fmt.Errorf("%w: resident bit of CLV %d is %v but slotOf = %d", ErrInvariant, idx, bit, s)
		}
		if s == noSlot {
			continue
		}
		if s < 0 || int(s) >= m.slots {
			return fmt.Errorf("%w: slotOf[%d] = %d out of range [0,%d)", ErrInvariant, idx, s, m.slots)
		}
		if m.clvOf[s] != int32(idx) {
			return fmt.Errorf("%w: slotOf[%d] = %d but clvOf[%d] = %d", ErrInvariant, idx, s, s, m.clvOf[s])
		}
	}
	free := 0
	for s, idx := range m.clvOf {
		if idx == noCLV {
			free++
			if m.pins[s] != 0 {
				return fmt.Errorf("%w: empty slot %d has pin count %d", ErrInvariant, s, m.pins[s])
			}
			continue
		}
		if idx < 0 || int(idx) >= len(m.slotOf) {
			return fmt.Errorf("%w: clvOf[%d] = %d out of range [0,%d)", ErrInvariant, s, idx, len(m.slotOf))
		}
		if m.slotOf[idx] != int32(s) {
			return fmt.Errorf("%w: clvOf[%d] = %d but slotOf[%d] = %d", ErrInvariant, s, idx, idx, m.slotOf[idx])
		}
	}
	if free != m.freeSlots {
		return fmt.Errorf("%w: free-slot count %d disagrees with the slot map (%d empty slots)", ErrInvariant, m.freeSlots, free)
	}
	pinned := 0
	for s, p := range m.pins {
		if p < 0 {
			return fmt.Errorf("%w: slot %d has negative pin count %d", ErrInvariant, s, p)
		}
		if p > 0 {
			pinned++
		}
	}
	if pinned != m.pinnedNow {
		return fmt.Errorf("%w: pinned-slot count %d disagrees with pin array (%d slots pinned)",
			ErrInvariant, m.pinnedNow, pinned)
	}
	if hw := m.stats.PinHighWater; hw > m.maxSlots {
		return fmt.Errorf("%w: pin high-water %d exceeds the lifetime maximum of %d slots", ErrInvariant, hw, m.maxSlots)
	}
	nspilled := 0
	for _, b := range m.spilled {
		if b {
			nspilled++
		}
	}
	if nspilled != m.stats.SpilledEntries {
		return fmt.Errorf("%w: spilled-record count %d disagrees with spilled set (%d records marked)",
			ErrInvariant, m.stats.SpilledEntries, nspilled)
	}
	if m.spillStore == nil && nspilled != 0 {
		return fmt.Errorf("%w: %d spilled records without a spill store", ErrInvariant, nspilled)
	}
	return nil
}

// Resize changes the slot-pool size — the fleet controller's lever for
// taking memory away from (or returning it to) a warm but cold engine
// without tearing the engine down. Shrinking first relocates CLVs from
// removed slots into free surviving slots, then evicts the remainder
// (consulting the spill policy, so a disk tier keeps them reloadable);
// growing adds free slots. The pool data is reallocated at the new size so
// the freed bytes are actually collectable, and Bytes() reflects the new
// size immediately. The new size is clamped to the tree's inner-CLV count
// and must stay at or above Tree.MinSlots(); resizing with pinned slots is
// refused (callers resize between runs, never mid-traversal). Placement
// output is independent of the pool size, so a shrunk engine's results stay
// byte-identical — only its recompute/reload work changes.
func (m *Manager) Resize(slots int) error {
	if min := m.tr.MinSlots(); slots < min {
		return fmt.Errorf("core: resize to %d slots below the minimum %d required for this tree", slots, min)
	}
	if max := m.tr.NumInnerCLVs(); slots > max {
		slots = max
	}
	if slots == m.slots {
		return nil
	}
	if m.pinnedNow != 0 {
		return fmt.Errorf("core: Resize with %d pinned slots", m.pinnedNow)
	}
	cl, sl := m.part.CLVLen(), m.part.ScaleLen()
	if slots < m.slots {
		// Free surviving slots become relocation targets for CLVs stranded in
		// the removed range; everything that cannot be relocated is evicted
		// through the normal spill-or-discard path.
		var freeLow []int32
		for s := int32(0); s < int32(slots); s++ {
			if m.clvOf[s] == noCLV {
				freeLow = append(freeLow, s)
			}
		}
		for s := int32(slots); s < int32(m.slots); s++ {
			idx := m.clvOf[s]
			if idx == noCLV {
				continue
			}
			if len(freeLow) > 0 {
				d := freeLow[0]
				freeLow = freeLow[1:]
				copy(m.clvData[int(d)*cl:(int(d)+1)*cl], m.clvData[int(s)*cl:(int(s)+1)*cl])
				copy(m.scaleData[int(d)*sl:(int(d)+1)*sl], m.scaleData[int(s)*sl:(int(s)+1)*sl])
				m.clvOf[d] = idx
				m.slotOf[idx] = d
				m.clvOf[s] = noCLV
			} else {
				m.maybeSpill(int(idx), s)
				m.stats.Evictions++
				m.vacate(idx, s)
			}
		}
	}
	newCLV := make([]float64, slots*cl)
	newScale := make([]int32, slots*sl)
	n := m.slots
	if slots < n {
		n = slots
	}
	copy(newCLV, m.clvData[:n*cl])
	copy(newScale, m.scaleData[:n*sl])
	newOf := make([]int32, slots)
	newPins := make([]int32, slots)
	copy(newOf, m.clvOf[:n])
	for s := n; s < slots; s++ {
		newOf[s] = noCLV
	}
	m.clvData, m.scaleData, m.clvOf, m.pins = newCLV, newScale, newOf, newPins
	// Every removed slot was emptied above and every added one starts empty.
	m.freeSlots += slots - m.slots
	m.slots = slots
	if cap(m.cands) < slots {
		m.cands = make([]int, 0, slots)
	}
	if slots > m.maxSlots {
		m.maxSlots = slots
	}
	return nil
}

// DemoteAll pushes every resident CLV out of the slot pool: with a spill
// store attached each one is serialized (unconditionally — demotion is an
// explicit decision, not a per-eviction policy call) so it reloads at disk
// bandwidth instead of recomputing; without a store the CLVs are simply
// discarded. All slots end up free; combined with Resize this shrinks a cold
// engine to its floor while keeping its warm state one reload away. Returns
// the number of CLVs with a valid spill record afterwards. Refused while any
// slot is pinned.
func (m *Manager) DemoteAll() (reloadable int, err error) {
	if m.pinnedNow != 0 {
		return 0, fmt.Errorf("core: DemoteAll with %d pinned slots", m.pinnedNow)
	}
	for s := int32(0); s < int32(m.slots); s++ {
		idx := m.clvOf[s]
		if idx == noCLV {
			continue
		}
		m.spillRecord(int(idx), s)
		m.stats.Evictions++
		m.vacate(idx, s)
		if m.spilled != nil && m.spilled[idx] {
			reloadable++
		}
	}
	return reloadable, nil
}

// ReclaimStats summarizes, for the fleet controller's victim cost model,
// what taking memory away from this manager would free and what getting it
// back would cost. The rates are this run's measured values (the same ones
// the hybrid spill policy uses): zero means not yet calibrated, which the
// controller treats optimistically, exactly like HybridSpill does.
type ReclaimStats struct {
	Slots            int   // current pool size
	MinSlots         int   // smallest size Resize accepts for this tree
	SlotBytes        int64 // bytes one slot frees
	ResidentCLVs     int   // currently slotted CLVs
	ResidentLeafWork int64 // subtree leaf count summed over slotted CLVs — the recompute work a full demotion puts at risk

	SpillEnabled       bool    // demoted CLVs reload from disk instead of recomputing
	RecomputeNsPerLeaf float64 // measured recompute cost (0 before calibration)
	ReloadNsPerByte    float64 // measured reload bandwidth (0 before calibration)
}

// ReclaimStats reports the manager's current reclaim picture.
func (m *Manager) ReclaimStats() ReclaimStats {
	rs := ReclaimStats{
		Slots:        m.slots,
		MinSlots:     m.tr.MinSlots(),
		SlotBytes:    m.part.CLVBytes(),
		SpillEnabled: m.spillStore != nil,
	}
	for s := int32(0); s < int32(m.slots); s++ {
		if idx := m.clvOf[s]; idx != noCLV {
			rs.ResidentCLVs++
			rs.ResidentLeafWork += int64(m.cost[idx])
		}
	}
	rs.RecomputeNsPerLeaf, rs.ReloadNsPerByte = m.measuredRates()
	return rs
}
