package memacct

import (
	"testing"

	"phylomem/internal/tree"
)

// paperConfig is one of the paper's Table I shapes at scale 1, as the
// placement engine hands it to the planner: Γ4, every site its own pattern,
// and the engine's slot floor (one above the tree's Sethi–Ullman minimum,
// here at its log2(n)+2 bound).
func paperConfig(leaves, sites, states int, maxmem int64, chunk int) PlanConfig {
	const rates = 4
	return PlanConfig{
		MaxMem:    maxmem,
		Branches:  2*leaves - 3,
		InnerCLVs: 3 * (leaves - 2),
		MinSlots:  tree.LogNBound(leaves) + 1,
		Patterns:  sites,
		Sites:     sites,
		States:    states,
		CLVBytes:  int64(sites*rates*states)*8 + int64(sites)*4,
		NumLeaves: leaves,
		ChunkSize: chunk,
	}
}

// TestPlanAtPaperDimensions pins the planner's arithmetic at the paper's own
// dimensions (Table I at scale 1), which no run on this repository's data
// reaches: the reference footprint (Figs. 3–4's 100 %), the lookup floor
// (Fig. 3's cliff) and the feasibility floor (Figs. 3–4's left edge), at
// chunks 5,000 and 500, and the plan under an 8 GiB ceiling. A change to the
// budget formulas moves these integers on purpose or not at all.
func TestPlanAtPaperDimensions(t *testing.T) {
	const gib8 = 8 << 30
	type pinned struct {
		reference, lookupFloor, minFeasible int64
		plan                                Plan
	}
	for _, tc := range []struct {
		name                  string
		leaves, sites, states int
		chunk                 int
		want                  pinned
	}{
		{"neotrop", 512, 4686, 4, 5000, pinned{1357574036, 652424756, 480186140, Plan{AMC: false, Slots: 1530, LookupEnabled: true, ChunkSize: 5000, BlockSize: 63,
			FixedBytes: 10030860, ChunkBytes: 228920000, LookupBytes: 172238616, SlotsBytes: 946384560, TotalBytes: 1357574036}}},
		{"neotrop", 512, 4686, 4, 500, pinned{1151546036, 446396756, 274158140, Plan{AMC: false, Slots: 1530, LookupEnabled: true, ChunkSize: 500, BlockSize: 63,
			FixedBytes: 10030860, ChunkBytes: 22892000, LookupBytes: 172238616, SlotsBytes: 946384560, TotalBytes: 1151546036}}},
		{"serratus", 546, 10170, 20, 5000, pinned{12979102284, 4890494484, 3074173164, Plan{AMC: true, Slots: 577, LookupEnabled: true, ChunkSize: 5000, BlockSize: 64,
			FixedBytes: 23029604, ChunkBytes: 451000000, LookupBytes: 1816321320, SlotsBytes: 3779049960, BranchBufBytes: 2515000320, TotalBytes: 8584401204}}},
		{"serratus", 546, 10170, 20, 500, pinned{12573202284, 4484594484, 2668273164, Plan{AMC: true, Slots: 639, LookupEnabled: true, ChunkSize: 500, BlockSize: 64,
			FixedBytes: 23029604, ChunkBytes: 45100000, LookupBytes: 1816321320, SlotsBytes: 4185117720, BranchBufBytes: 2515000320, TotalBytes: 8584568964}}},
		{"pro_ref", 20000, 1582, 4, 5000, pinned{16601758356, 4157518548, 1879609404, Plan{AMC: true, Slots: 21243, LookupEnabled: true, ChunkSize: 5000, BlockSize: 64,
			FixedBytes: 131862156, ChunkBytes: 1663800000, LookupBytes: 2277909144, SlotsBytes: 4436048232, BranchBufBytes: 80188416, TotalBytes: 8589807948}}},
		{"pro_ref", 20000, 1582, 4, 500, pinned{15104338356, 2660098548, 382189404, Plan{AMC: true, Slots: 28414, LookupEnabled: true, ChunkSize: 500, BlockSize: 64,
			FixedBytes: 131862156, ChunkBytes: 166380000, LookupBytes: 2277909144, SlotsBytes: 5933525136, BranchBufBytes: 80188416, TotalBytes: 8589864852}}},
	} {
		c := paperConfig(tc.leaves, tc.sites, tc.states, gib8, tc.chunk)
		p, err := PlanBudget(c)
		if err != nil {
			t.Fatalf("%s chunk %d: %v", tc.name, tc.chunk, err)
		}
		got := pinned{ReferenceFootprint(c), LookupFloorBytes(c), MinFeasibleBytes(c), p}
		if got != tc.want {
			t.Errorf("%s chunk %d:\n got %+v\nwant %+v", tc.name, tc.chunk, got, tc.want)
		}
		// Only neotrop runs without memory saving on an 8 GiB machine.
		if fits := got.reference <= gib8; fits != (tc.name == "neotrop") || fits == p.AMC {
			t.Errorf("%s chunk %d: reference %d bytes fits 8 GiB: %v, plan AMC %v", tc.name, tc.chunk, got.reference, fits, p.AMC)
		}
		if p.TotalBytes > gib8 {
			t.Errorf("%s chunk %d: plan of %d bytes exceeds the 8 GiB ceiling", tc.name, tc.chunk, p.TotalBytes)
		}
		// Fig. 4: a smaller chunk lowers the floor.
		if tc.chunk == 500 {
			if big := MinFeasibleBytes(paperConfig(tc.leaves, tc.sites, tc.states, 0, 5000)); got.minFeasible >= big {
				t.Errorf("%s: chunk 500 floor %d not below chunk 5000's %d", tc.name, got.minFeasible, big)
			}
		}
	}
}
