package main

import "time"

// Everything pinned about the benchmark lives here: workload shapes, budget
// fractions, request mix, rates, and the metric names with their units,
// directions and regression bounds. Nothing is calibrated at run time; the
// only run-time inputs are --seed and --seconds. BENCHMARK.json is printed
// from these tables (--print-manifest), so the two cannot drift apart.

const defaultSeed = 9

// spec is one workload: the shape of its seed-generated input and the
// command line of the program under test.
type spec struct {
	name string
	why  string

	serve bool // placed over HTTP instead of an epang batch run
	aa    bool // 20-state amino-acid data (else 4-state NT)

	leaves, sites, queries int
	coverage               float64 // fraction of sites a query covers

	threads, chunk int
	// datasets is how many independent datasets one run generates from its
	// seed and spreads its measurement over (see subDatasets).
	datasets int
	// memFraction × the reference (memory-saving off) footprint is passed as
	// --maxmem; 0 leaves memory unlimited. Both fractions sit inside their
	// planner regime on every seed (README.md, "Workloads"); the harness
	// checks the plan and refuses to run otherwise.
	memFraction float64
	spill       bool
	bayes       bool
	// Planner regime the run must land in (asserted from the plan).
	wantAMC, wantLookup bool
}

var specs = []*spec{
	{
		name:   "reads-full",
		why:    "Many short reads on a memory-resident tree: phase-1 lookup kernels, phase 2, FASTA decode and jplace encode do the work; core and clvstore idle. The bypass workload for every AMC or spill change.",
		leaves: 160, sites: 600, queries: 1000, coverage: 0.35,
		threads: 2, chunk: 250, datasets: subDatasets, wantLookup: true,
	},
	{
		name:   "bigtree-recompute",
		why:    "Large tree under --maxmem 0.42x the reference footprint, no spill: slot misses, eviction and CLV recomputation dominate. The paper's memory-for-runtime trade as users get it by default.",
		leaves: 400, sites: 100, queries: 100, coverage: 0.5,
		threads: 1, chunk: 50, datasets: 10, memFraction: 0.42, wantAMC: true, wantLookup: true,
	},
	{
		name:   "bigtree-spill",
		why:    "A larger tree at 0.20x with --clv-spill: evictions become clvstore writes and reloads, and with no lookup table phase 1 runs the full block kernel. Moves opposite to bigtree-recompute.",
		leaves: 800, sites: 100, queries: 100, coverage: 0.5,
		threads: 1, chunk: 50, datasets: subDatasets, memFraction: 0.20, spill: true, wantAMC: true,
	},
	{
		name: "aa-bayes",
		why:  "20-state kernels on wide CLVs with --scoring bayes --edpl: set-up is a visible share and the posterior-integration path runs. A 4-state or ML-only change must not move it.",
		aa:   true, leaves: 64, sites: 800, queries: 60, coverage: 1,
		threads: 2, chunk: 5000, datasets: subDatasets, bayes: true, wantLookup: true,
	},
	{
		name:  "serve-mixed",
		why:   "placed with shipped defaults over loopback, 8-query requests, a quarter of each repeated from earlier ones: the only path through HTTP decode, result cache, admission, batcher, engine and encode.",
		serve: true, leaves: 160, sites: 600, coverage: 0.35,
		threads: 1, datasets: subDatasets, wantLookup: true,
	},
}

// Request mix and load shape of serve-mixed. The pool of distinct queries a
// dataset holds is sized from the load (see loadFor and numQueries).
const (
	requestQueries   = 8    // queries per request
	requestRepeats   = 2    // of which repeated from earlier requests (25 %)
	closedClients    = 2    // phase A: closed loop, this many clients
	openRatePerSec   = 20   // phase B: open loop, fixed arrival rate
	openConnections  = 2    // phase B: at most this many requests in flight
	phaseAShare      = 0.35 // of --seconds
	phaseBShare      = 0.55 // of --seconds
	serveVerifyCount = 80   // leading pool queries also placed by epang and compared
)

// Shipped defaults of placed: what the in-process replay must match, and
// what bounds the closed-loop request rate.
const (
	placedMaxBatch    = 256
	placedMaxLatency  = 20 * time.Millisecond
	placedResultCache = 64 << 20
)

// subDatasets is how many independent datasets a run generates from its
// seed and spreads its measurement over, unless the workload asks for more.
// A single random tree makes every timing swing 5-10 % from seed to seed;
// averaging over four halves that. bigtree-recompute, whose recompute count
// follows the topology (10 % from tree to tree), takes ten.
const subDatasets = 4

// maxDatasets spaces the dataset seeds of consecutive --seed values apart.
const maxDatasets = 16

// setupRepsPerCase is how many of a dataset's visits also run the set-up
// command (the identical command line on a one-query file).
const setupRepsPerCase = 2

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// metricDef declares one metric. source says where the number comes from:
// binary (timed pass, from outside the program), span (harness-side span
// around a public call), probe (direct timed call of a layer function on the
// workload's own data), engine-counter (Engine.Stats), metrics-scrape
// (placed's /metrics), computed (derived from sizes or other metrics).
type metricDef struct {
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	source string
}

// endToEndNames is the --trace 0 metric set, in BENCHMARK.json order.
var endToEndNames = []string{
	"wall_s", "setup_s", "throughput_qps", "peak_rss_mib", "lat_p50_ms", "lat_p90_ms",
}

// perLayerNames is the --trace 1 metric set, in BENCHMARK.json order.
var perLayerNames = []string{
	"seq.decode_mb_s", "seq.digest_ns_per_query", "seq.compress_ms",
	"tree.parse_ms", "phylo.partition_build_ms", "phylo.full_clvset_ms", "phylo.build_prescore_row_ns",
	"phylo.update_clv_ns", "phylo.update_clv_bytes",
	"phylo.prescore_block_ns_per_cell", "phylo.query_loglik_block_ns_per_cell",
	"phylo.query_loglik_ns", "phylo.fill_p_ns", "phylo.pendant_grid_ns", "numeric.topk_ns_per_row",
	"core.hits", "core.recomputes", "core.evictions", "core.recompute_leaf_work", "core.slot_miss_rate",
	"core.spill_writes", "core.spill_reloads", "core.spill_errors", "core.acquire_ns", "core.recompute_ns",
	"clvstore.write_mb_s", "clvstore.read_mb_s", "clvstore.record_bytes",
	"memacct.planned_bytes", "memacct.peak_bytes", "memacct.budget_headroom_pct", "memacct.accounting_error_pct",
	"memacct.mem_fraction", "core.slowdown_x",
	"placement.setup_ms", "placement.lookup_build_ms",
	"placement.phase1_ns_per_query", "placement.phase2_ns_per_query", "placement.precompute_ns_per_query",
	"placement.chunk_read_ns_per_query", "placement.chunk_wait_ns_per_query",
	"placement.candidates_integrated_per_query", "placement.dedup_fold_ratio", "placement.unattributed_pct",
	"parallel.pool_busy_share", "parallel.speedup_x",
	"jplace.encode_mb_s", "jplace.encode_ns_per_query", "jplace.output_bytes",
	"epang.process_overhead_ms",
	"placement.batch_submit_ms", "placement.batch_occupancy", "placement.cache_hit_ratio", "placement.cache_get_ns",
	"placed.server_latency_mean_ms", "placed.engine_batch_mean_ms", "placed.queue_encode_mean_ms",
	"placed.transport_mean_ms", "placed.rejected_share",
	"placed.requests_sent_a", "placed.requests_ok_a", "placed.requests_failed_a",
	"placed.requests_sent_b", "placed.requests_ok_b", "placed.requests_failed_b",
	"placed.generator_lag_p99_ms",
	"telemetry.trace_overhead_pct", "analyze.mean_node_dist", "harness.fail_share",
}

// What --spread runs to check the bounds below: this many consecutive seeds
// per set, this many sets back to back — the driver's acceptance procedure.
const (
	spreadSeeds = 10
	spreadSets  = 2
)

var metricDefs = map[string]metricDef{
	// End to end. A bound holds for its metric on every workload, so it is
	// three times the largest spread --spread measured for that metric on
	// any of them, capped at the contract's 0.25 (README.md, "Bounds and
	// measured spread"): max-RSS spreads 0.4-1.7 %; every timing reaches
	// 8-11 % on bigtree-recompute (tree shape) or serve-mixed (this box).
	"wall_s":         {"s", "lower", 0.25, "binary"},
	"setup_s":        {"s", "lower", 0.25, "binary"},
	"throughput_qps": {"1/s", "higher", 0.25, "binary"},
	"peak_rss_mib":   {"MiB", "lower", 0.05, "binary"},
	"lat_p50_ms":     {"ms", "lower", 0.25, "binary"},
	"lat_p90_ms":     {"ms", "lower", 0.25, "binary"},

	"seq.decode_mb_s":         {"MB/s", "higher", 0, "probe"},
	"seq.digest_ns_per_query": {"ns", "lower", 0, "probe"},
	"seq.compress_ms":         {"ms", "lower", 0, "span"},

	"tree.parse_ms":                        {"ms", "lower", 0, "span"},
	"phylo.partition_build_ms":             {"ms", "lower", 0, "span"},
	"phylo.full_clvset_ms":                 {"ms", "lower", 0, "probe"},
	"phylo.build_prescore_row_ns":          {"ns", "lower", 0, "probe"},
	"phylo.update_clv_ns":                  {"ns", "lower", 0, "probe"},
	"phylo.update_clv_bytes":               {"count", "lower", 0, "computed"},
	"phylo.prescore_block_ns_per_cell":     {"ns", "lower", 0, "probe"},
	"phylo.query_loglik_block_ns_per_cell": {"ns", "lower", 0, "probe"},
	"phylo.query_loglik_ns":                {"ns", "lower", 0, "probe"},
	"phylo.fill_p_ns":                      {"ns", "lower", 0, "probe"},
	"phylo.pendant_grid_ns":                {"ns", "lower", 0, "probe"},
	"numeric.topk_ns_per_row":              {"ns", "lower", 0, "probe"},

	"core.hits":                {"count", "higher", 0, "engine-counter"},
	"core.recomputes":          {"count", "lower", 0, "engine-counter"},
	"core.evictions":           {"count", "lower", 0, "engine-counter"},
	"core.recompute_leaf_work": {"count", "lower", 0, "engine-counter"},
	"core.slot_miss_rate":      {"ratio", "lower", 0, "engine-counter"},
	"core.spill_writes":        {"count", "lower", 0, "engine-counter"},
	"core.spill_reloads":       {"count", "lower", 0, "engine-counter"},
	"core.spill_errors":        {"count", "lower", 0, "engine-counter"},
	"core.acquire_ns":          {"ns", "lower", 0, "probe"},
	"core.recompute_ns":        {"ns", "lower", 0, "probe"},

	"clvstore.write_mb_s":   {"MB/s", "higher", 0, "probe"},
	"clvstore.read_mb_s":    {"MB/s", "higher", 0, "probe"},
	"clvstore.record_bytes": {"count", "lower", 0, "computed"},

	"memacct.planned_bytes":        {"count", "lower", 0, "engine-counter"},
	"memacct.peak_bytes":           {"count", "lower", 0, "engine-counter"},
	"memacct.budget_headroom_pct":  {"%", "higher", 0, "computed"},
	"memacct.accounting_error_pct": {"%", "lower", 0, "computed"},
	"memacct.mem_fraction":         {"ratio", "lower", 0, "computed"},
	"core.slowdown_x":              {"x", "lower", 0, "computed"},

	"placement.setup_ms":                        {"ms", "lower", 0, "span"},
	"placement.lookup_build_ms":                 {"ms", "lower", 0, "engine-counter"},
	"placement.phase1_ns_per_query":             {"ns", "lower", 0, "engine-counter"},
	"placement.phase2_ns_per_query":             {"ns", "lower", 0, "engine-counter"},
	"placement.precompute_ns_per_query":         {"ns", "lower", 0, "engine-counter"},
	"placement.chunk_read_ns_per_query":         {"ns", "lower", 0, "engine-counter"},
	"placement.chunk_wait_ns_per_query":         {"ns", "lower", 0, "engine-counter"},
	"placement.candidates_integrated_per_query": {"count", "lower", 0, "engine-counter"},
	"placement.dedup_fold_ratio":                {"ratio", "higher", 0, "engine-counter"},
	"placement.unattributed_pct":                {"%", "lower", 0, "computed"},

	"parallel.pool_busy_share": {"ratio", "higher", 0, "engine-counter"},
	"parallel.speedup_x":       {"x", "higher", 0, "computed"},

	"jplace.encode_mb_s":         {"MB/s", "higher", 0, "probe"},
	"jplace.encode_ns_per_query": {"ns", "lower", 0, "probe"},
	"jplace.output_bytes":        {"count", "lower", 0, "computed"},

	"epang.process_overhead_ms": {"ms", "lower", 0, "computed"},

	"placement.batch_submit_ms": {"ms", "lower", 0, "span"},
	"placement.batch_occupancy": {"count", "higher", 0, "metrics-scrape"},
	"placement.cache_hit_ratio": {"ratio", "higher", 0, "metrics-scrape"},
	"placement.cache_get_ns":    {"ns", "lower", 0, "probe"},

	"placed.server_latency_mean_ms": {"ms", "lower", 0, "metrics-scrape"},
	"placed.engine_batch_mean_ms":   {"ms", "lower", 0, "metrics-scrape"},
	"placed.queue_encode_mean_ms":   {"ms", "lower", 0, "computed"},
	"placed.transport_mean_ms":      {"ms", "lower", 0, "computed"},
	"placed.rejected_share":         {"ratio", "lower", 0, "metrics-scrape"},
	"placed.requests_sent_a":        {"count", "higher", 0, "binary"},
	"placed.requests_ok_a":          {"count", "higher", 0, "binary"},
	"placed.requests_failed_a":      {"count", "lower", 0, "binary"},
	"placed.requests_sent_b":        {"count", "higher", 0, "binary"},
	"placed.requests_ok_b":          {"count", "higher", 0, "binary"},
	"placed.requests_failed_b":      {"count", "lower", 0, "binary"},
	"placed.generator_lag_p99_ms":   {"ms", "lower", 0, "binary"},

	"telemetry.trace_overhead_pct": {"%", "lower", 0, "computed"},
	"analyze.mean_node_dist":       {"edges", "lower", 0, "computed"},
	"harness.fail_share":           {"ratio", "lower", 0, "computed"},
}
