// Package faultinject provides deterministic, named failure points for
// exercising error paths that are otherwise nearly unreachable in tests:
// a decode error at exactly chunk K, a sink failure at result J, slot
// exhaustion inside the CLV manager, or the memory accountant detecting an
// overcommit. Production code calls Check at a named point; tests Arm the
// point with a trigger count and an error. With nothing armed, Check is a
// single atomic load — cheap enough to leave compiled into hot-ish paths
// (it is only called at chunk/block granularity, never per site).
//
// All faults are process-global and one-shot: the armed error is returned by
// the n'th Check call on that point and the point disarms itself. Tests must
// call Reset (typically via defer) so state never leaks across tests; the
// registry is safe for concurrent use, matching the pipelined engine's
// reader and placer goroutines.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names the failure points compiled into the codebase. Keeping them
// here (rather than as loose literals at the call sites) documents the full
// fault surface in one place.
const (
	// PointSourceNext fires in the placement engine's chunk-read loop: the
	// n'th chunk read returns the injected error, as if the query source
	// failed to decode its input.
	PointSourceNext = "placement.source.next"
	// PointSinkEmit fires in the placement engine's emit path: the n'th
	// result delivery returns the injected error, as if the output sink
	// (e.g. the jplace writer) failed.
	PointSinkEmit = "placement.sink.emit"
	// PointAllocSlot fires in core.Manager's slot allocator, simulating
	// slot exhaustion (or an invalid-victim strategy bug) mid-materialize.
	PointAllocSlot = "core.manager.allocslot"
	// PointAcctAlloc fires in memacct.Accountant.Alloc, simulating the
	// accountant detecting an overcommit: the accountant records the
	// injected error and the engines abort the run when they next check.
	PointAcctAlloc = "memacct.alloc"
	// PointSpillWrite fires in core.Manager's eviction path, simulating a
	// spill-file write failure. The manager must degrade to discarding the
	// victim (it will be recomputed on the next access) and keep running.
	PointSpillWrite = "core.manager.spillwrite"
	// PointSpillRead fires in core.Manager's materialize path, simulating a
	// spill-file read failure. The manager must drop the spilled record and
	// fall back to recomputation, never surfacing the I/O error as a wrong
	// CLV.
	PointSpillRead = "core.manager.spillread"
)

// armed is the number of currently armed points — the fast-path gate: when
// zero, Check returns nil without touching the registry lock.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points map[string]*fault
)

type fault struct {
	remaining int // Check calls left before the fault fires
	err       error
}

// Arm configures point to return err on its (after+1)'th Check call
// (after = 0 fires on the next call). Arming an already armed point
// replaces its trigger. err must be non-nil.
func Arm(point string, after int, err error) {
	if err == nil {
		panic("faultinject: Arm with nil error")
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*fault)
	}
	if _, ok := points[point]; !ok {
		armed.Add(1)
	}
	points[point] = &fault{remaining: after, err: err}
}

// Reset disarms every point. Tests that Arm anything should defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = nil
}

// Check reports whether a fault fires at this point: it returns the armed
// error on the trigger call (disarming the point) and nil otherwise.
func Check(point string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	f, ok := points[point]
	if !ok {
		return nil
	}
	if f.remaining > 0 {
		f.remaining--
		return nil
	}
	delete(points, point)
	armed.Add(-1)
	return f.err
}
