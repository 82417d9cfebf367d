package core

import "fmt"

// The spill tier composes the paper's AMC with the pplacer-style file-backed
// store it is evaluated against (Fig. 5): instead of always discarding an
// eviction victim and paying a full subtree recomputation on its next access,
// the manager may serialize the victim CLV into a clvstore.Store and later
// reload it — RAM slots → disk → recompute, cheapest-available tier first.
// Whether a given victim is worth spilling is a policy decision with a simple
// cost model: recomputing costs roughly cost[victim] (the subtree leaf-count
// proxy already maintained for eviction) times the measured per-leaf update
// time, while reloading costs the record size over the measured reload
// bandwidth. The file roundtrip preserves float64 bits exactly, so the choice
// is invisible in placement output — a pure performance knob, like Strategy.

// SpillContext carries the measurements a spill policy may consult when
// deciding whether an eviction victim is worth writing to the disk tier.
type SpillContext struct {
	// Cost approximates the recomputation cost of each CLV as the number of
	// leaves in the subtree it summarizes, indexed by global CLV index (the
	// same proxy EvictionContext exposes).
	Cost []int
	// RecordBytes is the serialized size of one CLV+scale record.
	RecordBytes int64
	// RecomputeNsPerLeaf is the measured mean wall time of CLV updates per
	// unit of leaf work this run, or 0 before any update has been timed.
	RecomputeNsPerLeaf float64
	// ReloadNsPerByte is the measured mean reload time per record byte this
	// run, or 0 before any reload has happened.
	ReloadNsPerByte float64
}

// SpillPolicy decides, per eviction victim, between discarding (pay a
// recomputation on the next access) and spilling (pay a record write now and
// a reload later). Implementations may consult the measured costs in the
// context; because a reloaded CLV is bit-identical to a recomputed one, any
// decision — including a timing-dependent one — affects runtime only, never
// placement output.
type SpillPolicy interface {
	// Name identifies the policy in logs and benchmark output.
	Name() string
	// ShouldSpill reports whether the victim's CLV should be written to the
	// spill store before its slot is reused.
	ShouldSpill(victim int, ctx *SpillContext) bool
}

// DiscardOnly never spills: every eviction discards, exactly as a manager
// without a spill store behaves. It is the control policy benchmarks compare
// against.
type DiscardOnly struct{}

// Name implements SpillPolicy.
func (DiscardOnly) Name() string { return "discard" }

// ShouldSpill implements SpillPolicy.
func (DiscardOnly) ShouldSpill(int, *SpillContext) bool { return false }

// SpillOnly spills every victim: maximal I/O, minimal recomputation. With a
// fast disk (or a hot page cache) this is the strongest recompute-tail
// crusher; with a slow one it trades CPU stalls for I/O stalls.
type SpillOnly struct{}

// Name implements SpillPolicy.
func (SpillOnly) Name() string { return "spill" }

// ShouldSpill implements SpillPolicy.
func (SpillOnly) ShouldSpill(int, *SpillContext) bool { return true }

// HybridSpill spills a victim exactly when its estimated reload is cheaper
// than its estimated recomputation:
//
//	RecordBytes × ReloadNsPerByte  <  Cost[victim] × RecomputeNsPerLeaf
//
// Both rates are measured on this run's own hardware and load. Recompute
// time is always measured before the first eviction (the pool fills by
// recomputing), and until the first reload has calibrated the store's
// bandwidth the policy spills optimistically — one mispriced write, after
// which the measured rate takes over.
type HybridSpill struct{}

// Name implements SpillPolicy.
func (HybridSpill) Name() string { return "hybrid" }

// ShouldSpill implements SpillPolicy.
func (HybridSpill) ShouldSpill(victim int, ctx *SpillContext) bool {
	if ctx.RecomputeNsPerLeaf <= 0 || ctx.ReloadNsPerByte <= 0 {
		return true
	}
	reload := float64(ctx.RecordBytes) * ctx.ReloadNsPerByte
	recompute := float64(ctx.Cost[victim]) * ctx.RecomputeNsPerLeaf
	return reload < recompute
}

// SpillPolicyByName constructs one of the built-in policies: "discard",
// "spill", or "hybrid". It returns nil for unknown names.
func SpillPolicyByName(name string) SpillPolicy {
	switch name {
	case "discard":
		return DiscardOnly{}
	case "spill":
		return SpillOnly{}
	case "hybrid":
		return HybridSpill{}
	}
	return nil
}

// SpillFlag is the --clv-spill[=discard|spill|hybrid] command-line value: a
// flag.Value writing the chosen policy straight into the field it points at
// (nil while the tier is off). Bare --clv-spill selects hybrid.
type SpillFlag struct{ Policy *SpillPolicy }

// String returns the chosen policy's name, or "" while the tier is off.
func (f SpillFlag) String() string {
	if f.Policy == nil || *f.Policy == nil {
		return ""
	}
	return (*f.Policy).Name()
}

// Set parses a policy name; the flag package passes "true" for the bare flag,
// and --clv-spill=false keeps the tier off as the former bool flag did.
func (f SpillFlag) Set(s string) error {
	switch s {
	case "true":
		s = "hybrid"
	case "false":
		*f.Policy = nil
		return nil
	}
	if *f.Policy = SpillPolicyByName(s); *f.Policy == nil {
		return fmt.Errorf("unknown spill policy %q (want discard, spill, or hybrid)", s)
	}
	return nil
}

// IsBoolFlag lets the flag stand alone: a token after a bare --clv-spill is
// never taken as its value.
func (SpillFlag) IsBoolFlag() bool { return true }
