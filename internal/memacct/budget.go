package memacct

import (
	"fmt"
)

// PlanConfig describes a placement problem's dimensions for budgeting.
type PlanConfig struct {
	MaxMem int64 // 0 = unlimited

	Branches  int   // 2n-3 insertion branches
	InnerCLVs int   // 3(n-2) global CLVs
	MinSlots  int   // tree's minimum slot requirement
	Patterns  int   // compressed alignment patterns
	Sites     int   // original alignment width
	States    int   // 4 or 20
	CLVBytes  int64 // bytes of one CLV incl. scale counters
	NumLeaves int

	ChunkSize int // requested queries per chunk
	BlockSize int // branches per precompute block (0 = default)
}

// DefaultBlockSize is the number of branches per precompute block under AMC.
const DefaultBlockSize = 64

// CLVsPerBufferedBranch is the number of CLV-sized buffers the placement
// engine stores per branch in a precompute block: the two directional CLV
// copies (for distal-position optimization) and the midpoint insertion CLV.
const CLVsPerBufferedBranch = 3

// BlockBufferBytes is the footprint of the AMC branch-block buffers: two
// blocks (one being filled while the other is placed against) of block
// branches, CLVsPerBufferedBranch CLVs each.
func BlockBufferBytes(block int, clvBytes int64) int64 {
	return 2 * int64(block) * CLVsPerBufferedBranch * clvBytes
}

// Plan is the planner's decision: the execution mode the placement engine
// will run in, plus the full accounting that led to it. The json tags are the
// "plan" section of the --stats-json report.
type Plan struct {
	AMC           bool `json:"amc"`            // memory saving active (slot-managed CLVs)
	Slots         int  `json:"slots"`          // CLV slots (== InnerCLVs when AMC is false)
	LookupEnabled bool `json:"lookup_enabled"` // pre-placement lookup table fits
	ChunkSize     int  `json:"chunk_size"`
	BlockSize     int  `json:"block_size"`

	FixedBytes     int64 `json:"fixed_bytes"`
	ChunkBytes     int64 `json:"chunk_bytes"`
	LookupBytes    int64 `json:"lookup_bytes"`
	SlotsBytes     int64 `json:"slots_bytes"`
	BranchBufBytes int64 `json:"branch_buf_bytes"`
	TotalBytes     int64 `json:"total_bytes"` // planned footprint
}

// SweepIndexBytes is the footprint of the sweep-aware CLV replacement index
// (core.Manager.BeginSweep): three int32 need positions per inner CLV, the
// int32 next-target table with one entry per branch plus a sentinel, and the
// tree's sweep order — int32 position, subtree end and far direction per
// branch.
func SweepIndexBytes(innerCLVs, branches int) int64 {
	return 4 * (3*int64(innerCLVs) + int64(branches) + 1 + 3*int64(branches))
}

// fixedBytes estimates the footprint that exists regardless of mode: tip
// encodings, the tree, model tables, engine scratch space, and the sweep
// index (reserved in every mode so a budget fraction means the same thing
// with memory saving on and off).
func fixedBytes(c PlanConfig) int64 {
	tips := int64(c.NumLeaves) * int64(c.Patterns) * 4
	treeOverhead := int64(c.NumLeaves) * 2 * 96 // nodes + edges bookkeeping
	scratch := int64(c.States*c.States*8*8) + int64(c.Patterns)*64
	return tips + treeOverhead + scratch + SweepIndexBytes(c.InnerCLVs, c.Branches)
}

// chunkBytes estimates the per-chunk intermediate structures: the query
// encodings and the per-(query, branch) score matrix that phase-1
// pre-placement fills ("internal intermediate datastructures that save
// results for each combination of RT branch and QS", Section II). The query
// term is doubled: the placed server admits at most one chunk of encoded
// request bytes in flight ("server-inflight"), and the chunk being placed
// ("chunk-queries") is accounted beside it.
func chunkBytes(c PlanConfig, chunk int) int64 {
	queries := 2 * int64(chunk) * int64(c.Sites) * 4
	scores := int64(chunk) * int64(c.Branches) * 8
	candidates := int64(chunk) * 128
	return queries + scores + candidates
}

// lookupBytes returns the pre-placement lookup table footprint: one
// patterns×states float64 row plus per-pattern scale counters per branch.
func lookupBytes(c PlanConfig) int64 {
	return int64(c.Branches) * (int64(c.Patterns)*int64(c.States)*8 + int64(c.Patterns)*4)
}

// blockSize is the precompute block the planner grants: the requested size
// (0 = DefaultBlockSize), at most one block per tree, and small enough that
// the double-buffered branch blocks stay a small fraction (≤ 1/4) of the CLV
// pool they are meant to save — on large trees that cap never binds.
func (c PlanConfig) blockSize() int {
	block := c.BlockSize
	if block <= 0 {
		block = DefaultBlockSize
	}
	return max(1, min(block, c.Branches, c.InnerCLVs/(4*2*CLVsPerBufferedBranch)))
}

// PlanBudget decides the execution mode for a memory ceiling, mirroring
// EPA-NG's --maxmem logic:
//
//  1. Fixed structures and per-chunk buffers are mandatory.
//  2. If everything (all 3(n-2) CLVs + lookup table) fits, memory saving is
//     unnecessary: AMC off, reference mode.
//  3. Otherwise AMC is enabled with double-buffered branch blocks. The
//     lookup table is kept if it fits alongside the minimum slot count —
//     losing it is the paper's Fig. 3 runtime cliff.
//  4. Remaining bytes become CLV slots, never fewer than the tree minimum.
//
// An error reports the smallest feasible ceiling when MaxMem is too low.
func PlanBudget(c PlanConfig) (Plan, error) {
	if c.MaxMem < 0 {
		return Plan{}, fmt.Errorf("memacct: maxmem must not be negative, got %d", c.MaxMem)
	}
	if c.ChunkSize <= 0 {
		return Plan{}, fmt.Errorf("memacct: chunk size must be positive, got %d", c.ChunkSize)
	}
	block := c.blockSize()
	p := Plan{
		ChunkSize:   c.ChunkSize,
		BlockSize:   block,
		FixedBytes:  fixedBytes(c),
		ChunkBytes:  chunkBytes(c, c.ChunkSize),
		LookupBytes: lookupBytes(c),
	}
	allCLVs := int64(c.InnerCLVs) * c.CLVBytes
	referenceTotal := p.FixedBytes + p.ChunkBytes + p.LookupBytes + allCLVs

	if c.MaxMem == 0 || c.MaxMem >= referenceTotal {
		p.AMC = false
		p.Slots = c.InnerCLVs
		p.LookupEnabled = true
		p.SlotsBytes = allCLVs
		p.TotalBytes = referenceTotal
		return p, nil
	}

	p.AMC = true
	p.BranchBufBytes = BlockBufferBytes(block, c.CLVBytes)
	remaining := c.MaxMem - p.FixedBytes - p.ChunkBytes - p.BranchBufBytes
	minSlotsBytes := int64(c.MinSlots) * c.CLVBytes
	if remaining >= p.LookupBytes+minSlotsBytes {
		p.LookupEnabled = true
		slots := int((remaining - p.LookupBytes) / c.CLVBytes)
		if slots > c.InnerCLVs {
			slots = c.InnerCLVs
		}
		p.Slots = slots
	} else {
		p.LookupEnabled = false
		p.LookupBytes = 0
		slots := int(remaining / c.CLVBytes)
		if slots > c.InnerCLVs {
			slots = c.InnerCLVs
		}
		if slots < c.MinSlots {
			need := p.FixedBytes + p.ChunkBytes + p.BranchBufBytes + minSlotsBytes
			return Plan{}, fmt.Errorf(
				"memacct: maxmem %s is below the minimum %s for this input (chunk %d); reduce the chunk size or raise the limit",
				FormatBytes(c.MaxMem), FormatBytes(need), c.ChunkSize)
		}
		p.Slots = slots
	}
	p.SlotsBytes = int64(p.Slots) * c.CLVBytes
	p.TotalBytes = p.FixedBytes + p.ChunkBytes + p.BranchBufBytes + p.LookupBytes + p.SlotsBytes
	return p, nil
}

// ReferenceFootprint returns the planned footprint of the reference
// (memory-saving disabled) configuration — the denominator of the paper's
// "fraction of memory used" axis in Figs. 3 and 4.
func ReferenceFootprint(c PlanConfig) int64 {
	return fixedBytes(c) + chunkBytes(c, c.ChunkSize) + lookupBytes(c) + int64(c.InnerCLVs)*c.CLVBytes
}

// MinFeasibleBytes returns the smallest MaxMem that PlanBudget accepts for
// this configuration: fixed structures, chunk buffers, the double-buffered
// branch blocks, and the minimum CLV slot count (no lookup table).
func MinFeasibleBytes(c PlanConfig) int64 {
	return fixedBytes(c) + chunkBytes(c, c.ChunkSize) +
		BlockBufferBytes(c.blockSize(), c.CLVBytes) + int64(c.MinSlots)*c.CLVBytes
}

// LookupFloorBytes returns the smallest MaxMem under which PlanBudget keeps
// the pre-placement lookup table: the feasibility floor plus the table.
func LookupFloorBytes(c PlanConfig) int64 {
	return MinFeasibleBytes(c) + lookupBytes(c)
}
