// Package memacct provides logical memory accounting and the --maxmem
// budget planner. EPA-NG's memory-saving mode works from exactly this kind
// of accounting: every major data structure registers its size, and the
// planner decides — for a given memory ceiling — how many CLV slots fit,
// whether the pre-placement lookup table fits, and consequently which
// execution mode the placement engine runs in. The paper notes its own
// accounting was imperfect (one pro_ref data point exceeded the limit);
// keeping the accounting explicit and inspectable here makes the same class
// of issue visible instead of hidden.
package memacct

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"phylomem/internal/faultinject"
)

// ErrOvercommit marks a run that exceeded its accounted memory limit — the
// exact failure class the paper admits to (one pro_ref run over --maxmem,
// Section V). Test for it with errors.Is.
var ErrOvercommit = errors.New("memacct: accounted bytes exceeded limit")

// ErrNotDrained marks categories left non-zero at shutdown: a leak in the
// accounting (or in the real allocation it mirrors). Test with errors.Is.
var ErrNotDrained = errors.New("memacct: categories not drained")

// Accountant tracks logical allocated bytes by category and remembers the
// peak. It is safe for concurrent use.
//
// An optional hard limit (SetLimit) turns the accounting into enforcement:
// the first Alloc that pushes the total past the limit records a sticky
// ErrOvercommit, which engines poll via Err at chunk granularity and turn
// into a run abort. Alloc itself never fails — the caller has already
// allocated — so detection is deliberately decoupled from reaction.
type Accountant struct {
	mu         sync.Mutex
	categories map[string]int64
	catPeaks   map[string]int64
	current    int64
	peak       int64
	limit      int64 // 0 = unlimited
	fail       error // sticky overcommit (real or injected)

	// Hierarchy (see NewChild): every allocation recorded here is mirrored
	// into parent under parentCat, so a fleet-level accountant sees each
	// tenant's footprint as one category while each tenant keeps its own
	// full breakdown. Immutable after construction; the child's lock is
	// never held while calling into the parent, so lock ordering is always
	// child → parent and the hierarchy cannot deadlock.
	parent    *Accountant
	parentCat string
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		categories: make(map[string]int64),
		catPeaks:   make(map[string]int64),
	}
}

// NewChild returns an accountant whose every allocation is mirrored into a
// (the parent) under the given category — the hierarchy that lifts per-engine
// budget arithmetic to fleet level. The child carries its own limit, peak,
// and per-category breakdown exactly like a standalone accountant; the parent
// additionally sees the child's instantaneous total as one category, so a
// fleet-wide limit on the parent governs the sum of all children plus
// whatever the parent allocates directly. The category is seeded with a
// zero-byte allocation so it appears in the parent's breakdown from the
// moment the child exists; a fully drained child leaves the category at zero,
// which is what makes AssertDrained meaningful at both levels.
func (a *Accountant) NewChild(category string) *Accountant {
	a.Alloc(category, 0)
	c := NewAccountant()
	c.parent = a
	c.parentCat = category
	return c
}

// SetLimit arms hard-limit detection at the given byte ceiling (0 disables).
// It does not retroactively flag an already-exceeded total.
func (a *Accountant) SetLimit(limit int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.limit = limit
}

// Err returns the sticky overcommit error recorded by Alloc, or nil.
func (a *Accountant) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fail
}

// Alloc records bytes allocated under the category. On a child accountant
// the bytes are additionally mirrored into the parent's category, where they
// may arm the parent's own sticky overcommit (fleet-level detection).
func (a *Accountant) Alloc(category string, bytes int64) {
	if bytes < 0 {
		panic("memacct: negative allocation")
	}
	a.mu.Lock()
	a.categories[category] += bytes
	// >= so that a zero-byte Alloc still registers the category in the peak
	// breakdown — engines pre-seed their transient categories this way to
	// keep the --stats-json key set independent of the execution mode.
	if a.categories[category] >= a.catPeaks[category] {
		a.catPeaks[category] = a.categories[category]
	}
	a.current += bytes
	if a.current > a.peak {
		a.peak = a.current
	}
	if a.fail == nil {
		if a.limit > 0 && a.current > a.limit {
			a.fail = fmt.Errorf("%w: %s allocated, limit %s (category %q)",
				ErrOvercommit, FormatBytes(a.current), FormatBytes(a.limit), category)
		} else if err := faultinject.Check(faultinject.PointAcctAlloc); err != nil {
			a.fail = fmt.Errorf("%w: injected at category %q: %w", ErrOvercommit, category, err)
		}
	}
	a.mu.Unlock()
	if a.parent != nil {
		a.parent.Alloc(a.parentCat, bytes)
	}
}

// TryAlloc records bytes under the category only if they fit: it fails —
// without recording anything and without arming the sticky overcommit —
// when a hard limit is set and the allocation would exceed it, or when a
// sticky failure is already recorded. This is the admission-control
// primitive: Alloc is for work already committed (detection after the
// fact), TryAlloc is for work that can still be refused (backpressure
// before the fact). A successful TryAlloc is released with Free, exactly
// like Alloc.
//
// On a child accountant both levels must admit the bytes: the child's own
// limit is checked (and the bytes recorded) first, then the parent's via its
// own TryAlloc; a parent refusal unwinds the child record and fails. A
// request that one tenant's budget would admit is therefore still refused
// when the fleet as a whole has no headroom — cross-tenant backpressure.
func (a *Accountant) TryAlloc(category string, bytes int64) bool {
	if bytes < 0 {
		panic("memacct: negative allocation")
	}
	a.mu.Lock()
	if a.fail != nil {
		a.mu.Unlock()
		return false
	}
	if a.limit > 0 && a.current+bytes > a.limit {
		a.mu.Unlock()
		return false
	}
	a.categories[category] += bytes
	if a.categories[category] >= a.catPeaks[category] {
		a.catPeaks[category] = a.categories[category]
	}
	a.current += bytes
	if a.current > a.peak {
		a.peak = a.current
	}
	a.mu.Unlock()
	if a.parent != nil && !a.parent.TryAlloc(a.parentCat, bytes) {
		a.mu.Lock()
		a.categories[category] -= bytes
		a.current -= bytes
		a.mu.Unlock()
		return false
	}
	return true
}

// Headroom returns the bytes still allocatable under the hard limit, or -1
// when no limit is set. On a child accountant it is the minimum of the
// child's own headroom and the parent's — the bytes both levels would admit.
// Callers use it to size Retry-After style hints; the value is advisory
// (another goroutine may allocate in between).
func (a *Accountant) Headroom() int64 {
	a.mu.Lock()
	var own int64 = -1
	if a.limit > 0 {
		own = a.limit - a.current
		if own < 0 {
			own = 0
		}
	}
	parent := a.parent
	a.mu.Unlock()
	if parent != nil {
		if ph := parent.Headroom(); ph >= 0 && (own < 0 || ph < own) {
			return ph
		}
	}
	return own
}

// Free records bytes released under the category. Freeing more than was
// allocated in a category panics: it indicates an accounting bug of the kind
// the paper attributes its over-budget data point to.
func (a *Accountant) Free(category string, bytes int64) {
	if bytes < 0 {
		panic("memacct: negative free")
	}
	a.mu.Lock()
	if a.categories[category] < bytes {
		a.mu.Unlock()
		panic(fmt.Sprintf("memacct: freeing %d bytes from category %q holding %d", bytes, category, a.categories[category]))
	}
	a.categories[category] -= bytes
	a.current -= bytes
	a.mu.Unlock()
	if a.parent != nil {
		a.parent.Free(a.parentCat, bytes)
	}
}

// Current returns the currently accounted bytes.
func (a *Accountant) Current() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current
}

// Peak returns the historical maximum of Current.
func (a *Accountant) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// AssertDrained verifies that the given categories hold zero accounted
// bytes; with no categories it verifies every category — i.e. a fully
// drained accountant. It returns an ErrNotDrained-wrapped error naming each
// offending category and its balance. Engines call this from Close, after
// releasing their persistent allocations, so any leak in the transient
// (per-chunk) accounting surfaces at shutdown instead of silently
// skewing the next run's budget.
func (a *Accountant) AssertDrained(categories ...string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(categories) == 0 {
		categories = make([]string, 0, len(a.categories))
		for k := range a.categories {
			categories = append(categories, k)
		}
		sort.Strings(categories)
	}
	var leaks []string
	for _, c := range categories {
		if b := a.categories[c]; b != 0 {
			leaks = append(leaks, fmt.Sprintf("%s=%s", c, FormatBytes(b)))
		}
	}
	if len(leaks) > 0 {
		return fmt.Errorf("%w: %s", ErrNotDrained, strings.Join(leaks, ", "))
	}
	return nil
}

// PeakBreakdown returns a copy of the per-category historical maxima. The
// sum over categories generally exceeds Peak(): each category peaks at its
// own moment, while Peak is the maximum of the instantaneous total. The
// --stats-json report carries both, which is what makes "which category
// drove the peak" answerable after the run — the accounting transparency
// the paper's own over-budget data point (Section V) lacked.
func (a *Accountant) PeakBreakdown() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.catPeaks))
	for k, v := range a.catPeaks {
		out[k] = v
	}
	return out
}

// Breakdown returns a copy of the per-category byte counts.
func (a *Accountant) Breakdown() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.categories))
	for k, v := range a.categories {
		out[k] = v
	}
	return out
}

// String renders the breakdown sorted by descending size.
func (a *Accountant) String() string {
	bd := a.Breakdown()
	keys := make([]string, 0, len(bd))
	for k := range bd {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if bd[keys[i]] != bd[keys[j]] {
			return bd[keys[i]] > bd[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "current %s, peak %s", FormatBytes(a.Current()), FormatBytes(a.Peak()))
	for _, k := range keys {
		if bd[k] > 0 {
			fmt.Fprintf(&sb, "\n  %-16s %s", k, FormatBytes(bd[k]))
		}
	}
	return sb.String()
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case b >= gib:
		return fmt.Sprintf("%.2f GiB", float64(b)/gib)
	case b >= mib:
		return fmt.Sprintf("%.2f MiB", float64(b)/mib)
	case b >= kib:
		return fmt.Sprintf("%.2f KiB", float64(b)/kib)
	}
	return fmt.Sprintf("%d B", b)
}

// ParseBytes parses a human byte size such as "4G", "4GiB", "4gib", "512M",
// "100K", "123" (bytes). Binary units (1024-based) are used, matching
// EPA-NG's --maxmem; unit letters and the optional "iB"/"B" tail are
// case-insensitive. The whole string must parse: trailing garbage ("4x",
// "4Gx") is an error, not silently truncated.
func ParseBytes(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(s)
	if t := strings.ToLower(s); strings.HasSuffix(t, "ib") {
		s = s[:len(s)-2]
	} else if strings.HasSuffix(t, "b") {
		s = s[:len(s)-1]
	}
	if s == "" {
		return 0, fmt.Errorf("memacct: invalid size %q", orig)
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("memacct: invalid size %q", orig)
	}
	return int64(v * float64(mult)), nil
}
