package experiments

import (
	"fmt"
	"math"
	"sort"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/workload"
)

// Options controls every experiment's scale and effort.
type Options struct {
	// Scale divides the paper's dataset dimensions (1 = full size).
	Scale int
	// Seed drives all dataset synthesis.
	Seed int64
	// Reps is the repetition count per configuration (the paper uses 5).
	Reps int
	// Threads is the Fig. 6/7 thread sweep.
	Threads []int
	// Fractions is the Fig. 3/4 memory-fraction sweep (of the reference
	// footprint, descending).
	Fractions []float64
	// ChunkLarge and ChunkSmall are the two chunk sizes (the paper's 5000
	// and 500, scaled so the number of chunks is preserved).
	ChunkLarge int
	ChunkSmall int
	// Datasets restricts the canonical dataset list (default: all three).
	Datasets []string
	// MaxQueries truncates each dataset's query set (0 = all). Used by fast
	// test configurations; full experiment runs leave it at 0.
	MaxQueries int
	// Base is the placement configuration every experiment engine starts
	// from (chunk size, memory limit and threads are set per experiment).
	Base placement.Config
}

// DefaultOptions returns an Options with the paper's protocol scaled by the
// given factor.
func DefaultOptions(scale int) Options {
	if scale < 1 {
		scale = 1
	}
	chunkL := 5000 / scale
	if chunkL < 20 {
		chunkL = 20
	}
	chunkS := 500 / scale
	if chunkS < 4 {
		chunkS = 4
	}
	return Options{
		Scale:      scale,
		Seed:       2021,
		Reps:       5,
		Threads:    []int{1, 2, 4, 8, 16, 32},
		Fractions:  []float64{1.0, 0.8, 0.6, 0.45, 0.35, 0.25, 0.18, 0.12, 0.08},
		ChunkLarge: chunkL,
		ChunkSmall: chunkS,
		Datasets:   workload.Names(),
		Base:       placement.DefaultConfig(),
	}
}

func (o Options) datasets() []string {
	if len(o.Datasets) == 0 {
		return workload.Names()
	}
	return o.Datasets
}

func (o Options) prepare(name string) (*Prepared, error) {
	ds, err := workload.ByName(name, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(ds)
	if err != nil {
		return nil, err
	}
	if o.MaxQueries > 0 && len(p.Queries) > o.MaxQueries {
		p.Queries = p.Queries[:o.MaxQueries]
	}
	return p, nil
}

// Table1 regenerates the paper's Table I: dataset characteristics.
func Table1(o Options) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Table I — dataset characteristics (scale 1/%d)", o.Scale),
		Columns: []string{"name", "leaves", "sites", "#QSs", "type"},
	}
	for _, name := range o.datasets() {
		ds, err := workload.ByName(name, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprintf("%d", ds.Tree.NumLeaves()),
			fmt.Sprintf("%d", ds.RefMSA.Width()),
			fmt.Sprintf("%d", len(ds.Queries)),
			ds.Type(),
		})
	}
	return t, nil
}

// memorySweep is the shared machinery of Figs. 3 and 4: for each dataset,
// one reference run plus one run per memory fraction (clamped at the
// feasibility floor), reporting slowdown against the reference.
func memorySweep(o Options, chunk int, title string) (*Table, error) {
	t := &Table{
		Title: title,
		Columns: []string{"dataset", "maxmem_frac", "mem_MiB", "mem_frac", "time_s",
			"slowdown", "log2_slowdown", "lookup", "slots", "recomputes"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		base := o.Base
		base.ChunkSize = chunk
		ref, err := RunEPA(p, base, "reference", o.Reps)
		if err != nil {
			return nil, err
		}
		refBytes := p.ReferenceBytes(base)
		minBytes := p.MinFeasibleBytes(base)

		addRow := func(fracLabel string, m *Measurement) {
			slow := m.Wall.Seconds() / ref.Wall.Seconds()
			lookup := "on"
			if !m.Stats.LookupEnabled {
				lookup = "off"
			}
			t.Rows = append(t.Rows, []string{
				name, fracLabel, mib(m.PeakBytes),
				fmt.Sprintf("%.3f", float64(m.PeakBytes)/float64(ref.PeakBytes)),
				seconds(m.Wall),
				fmt.Sprintf("%.2f", slow),
				fmt.Sprintf("%.2f", math.Log2(slow)),
				lookup,
				fmt.Sprintf("%d", m.Stats.Slots),
				fmt.Sprintf("%d", m.Stats.CLVStats.Recomputes),
			})
		}
		addRow("ref", ref)

		seen := map[int64]bool{}
		for _, frac := range o.Fractions {
			maxmem := int64(frac * float64(refBytes))
			if maxmem < minBytes {
				maxmem = minBytes
			}
			if seen[maxmem] {
				continue
			}
			seen[maxmem] = true
			cfg := base
			cfg.MaxMem = maxmem
			m, err := RunEPA(p, cfg, fmt.Sprintf("frac%.2f", frac), o.Reps)
			if err != nil {
				return nil, err
			}
			addRow(fmt.Sprintf("%.2f", frac), m)
		}
		// The fullest memory saving: the feasibility floor itself.
		if !seen[minBytes] {
			cfg := base
			cfg.MaxMem = minBytes
			m, err := RunEPA(p, cfg, "full", o.Reps)
			if err != nil {
				return nil, err
			}
			addRow("min", m)
		}
	}
	return t, nil
}

// Fig3 regenerates the paper's Fig. 3: slowdown versus memory fraction at
// the default chunk size (5000, scaled).
func Fig3(o Options) (*Table, error) {
	return memorySweep(o, o.ChunkLarge,
		fmt.Sprintf("Fig. 3 — slowdown vs memory fraction, chunk %d (scale 1/%d)", o.ChunkLarge, o.Scale))
}

// Fig4 regenerates the paper's Fig. 4: the same sweep at chunk size 500
// (scaled), which lowers the feasible memory floor at the cost of more
// passes over the tree.
func Fig4(o Options) (*Table, error) {
	return memorySweep(o, o.ChunkSmall,
		fmt.Sprintf("Fig. 4 — slowdown vs memory fraction, chunk %d (scale 1/%d)", o.ChunkSmall, o.Scale))
}

// Table2 regenerates the paper's Table II: absolute runtimes and memory
// footprints for the reference (O), intermediate (I: smallest memory that
// still fits the lookup table) and full memory-saving (F) settings, with
// each run's CLV recomputes — the machine-independent price of its memory.
func Table2(o Options) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table II — absolute time and memory for O/I/F runs, chunk %d (scale 1/%d)", o.ChunkLarge, o.Scale),
		Columns: []string{"dataset", "time_O_s", "time_I_s", "time_F_s", "mem_O_MiB", "mem_I_MiB", "mem_F_MiB",
			"recomputes_O", "recomputes_I", "recomputes_F"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		base := o.Base
		base.ChunkSize = o.ChunkLarge

		refM, err := RunEPA(p, base, "O", o.Reps)
		if err != nil {
			return nil, err
		}
		// I: the paper's intermediate setting — the lowest memory that still
		// shows comparatively low execution times, i.e. comfortably above
		// the lookup-table cliff: the lookup floor plus ~30% of the CLV
		// pool as slots.
		refBytes := p.ReferenceBytes(base)
		minBytes := p.MinFeasibleBytes(base)
		cfgI := base
		cfgI.MaxMem = memacct.LookupFloorBytes(p.PlanConfigFor(base)) +
			int64(0.3*float64(p.Tree.NumInnerCLVs()))*p.Part.CLVBytes()
		if cfgI.MaxMem > refBytes {
			cfgI.MaxMem = refBytes
		}
		iM, err := RunEPA(p, cfgI, "I", o.Reps)
		if err != nil {
			return nil, err
		}
		cfgF := base
		cfgF.MaxMem = minBytes
		fM, err := RunEPA(p, cfgF, "F", o.Reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			seconds(refM.Wall), seconds(iM.Wall), seconds(fM.Wall),
			mib(refM.PeakBytes), mib(iM.PeakBytes), mib(fM.PeakBytes),
			fmt.Sprint(refM.Stats.CLVStats.Recomputes), fmt.Sprint(iM.Stats.CLVStats.Recomputes),
			fmt.Sprint(fM.Stats.CLVStats.Recomputes),
		})
	}
	return t, nil
}

// Fig5 regenerates the paper's Fig. 5: EPA-NG versus pplacer on the two
// high-memory datasets, each with and without its memory-saving mode.
func Fig5(o Options) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 5 — EPA-NG vs pplacer, memory saving off/on (scale 1/%d)", o.Scale),
		Columns: []string{"tool", "dataset", "memsave", "time_s", "mem_MiB"},
	}
	for _, name := range []string{"serratus", "pro_ref"} {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		// EPA-NG, chunk 500 (scaled) as in the paper's Fig. 5 protocol.
		cfg := o.Base
		cfg.ChunkSize = o.ChunkSmall
		off, err := RunEPA(p, cfg, "epa-off", o.Reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"EPA-NG", name, "off", seconds(off.Wall), mib(off.PeakBytes)})

		cfgOn := cfg
		limit := int64(0.6 * float64(p.ReferenceBytes(cfg))) // the scaled "4 GiB laptop" budget
		if min := p.MinFeasibleBytes(cfg); limit < min {
			limit = min
		}
		cfgOn.MaxMem = limit
		on, err := RunEPA(p, cfgOn, "epa-on", o.Reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"EPA-NG", name, "on", seconds(on.Wall), mib(on.PeakBytes)})

		ppOff, _, err := RunPplacer(p, pplacer.Config{}, "pplacer-off", o.Reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"pplacer", name, "off", seconds(ppOff.Wall), mib(ppOff.PeakBytes)})

		ppOn, _, err := RunPplacer(p, pplacer.Config{FileBacked: true}, "pplacer-on", o.Reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"pplacer", name, "on", seconds(ppOn.Wall), mib(ppOn.PeakBytes)})
	}
	return t, nil
}

// peModes are the three memory settings of Figs. 6 and 7.
func peModes(p *Prepared, base placement.Config) []struct {
	name string
	cfg  placement.Config
} {
	full := base
	full.MaxMem = p.MinFeasibleBytes(base)
	maxmem := base
	maxmem.ForceAMC = true
	return []struct {
		name string
		cfg  placement.Config
	}{
		{"off", base},
		{"full", full},
		{"maxmem", maxmem},
	}
}

// parallelEfficiency measures speedup and PE for a thread sweep, against a
// fully serial baseline per mode (Threads=1, synchronous precompute).
func parallelEfficiency(o Options, title string, experimental bool, datasets []string) (*Table, error) {
	t := &Table{
		Title:   title,
		Columns: []string{"dataset", "mode", "threads_total", "time_s", "speedup", "PE"},
	}
	for _, name := range datasets {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		base := o.Base
		base.ChunkSize = o.ChunkLarge
		for _, mode := range peModes(p, base) {
			// Serial baseline: one worker, no async precompute thread.
			serialCfg := mode.cfg
			serialCfg.Threads = 1
			serialCfg.SyncPrecompute = true
			serial, err := RunEPA(p, serialCfg, mode.name+"-serial", o.Reps)
			if err != nil {
				return nil, err
			}
			for _, threads := range o.Threads {
				cfg := mode.cfg
				cfg.Threads = threads
				if experimental {
					// Fig. 7: synchronous precompute parallelized across sites.
					cfg.SyncPrecompute = true
				}
				m, err := RunEPA(p, cfg, fmt.Sprintf("%s-t%d", mode.name, threads), o.Reps)
				if err != nil {
					return nil, err
				}
				pTotal := m.Stats.ThreadsUsed
				speedup := serial.Fastest.Seconds() / m.Fastest.Seconds()
				pe := speedup / float64(pTotal)
				t.Rows = append(t.Rows, []string{
					name, mode.name, fmt.Sprintf("%d", pTotal),
					seconds(m.Fastest),
					fmt.Sprintf("%.3f", speedup),
					fmt.Sprintf("%.3f", pe),
				})
			}
		}
	}
	return t, nil
}

// Fig6 regenerates the paper's Fig. 6: parallel efficiency across datasets
// and memory modes with the asynchronous precompute thread.
func Fig6(o Options) (*Table, error) {
	return parallelEfficiency(o,
		fmt.Sprintf("Fig. 6 — parallel efficiency, modes off/full/maxmem (scale 1/%d)", o.Scale),
		false, o.datasets())
}

// Fig7 regenerates the paper's Fig. 7: the experimental across-site
// synchronous precompute scheme on the wide-alignment dataset.
func Fig7(o Options) (*Table, error) {
	return parallelEfficiency(o,
		fmt.Sprintf("Fig. 7 — PE with across-site synchronous precompute, serratus (scale 1/%d)", o.Scale),
		true, []string{"serratus"})
}

// LookupSpeedup quantifies the pre-placement lookup table's effect (the
// paper's ≈15× in default mode, up to ≈23× under AMC): runtime with and
// without the table, with memory saving off and at the fullest setting.
func LookupSpeedup(o Options) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Lookup-table memoization speedup (scale 1/%d)", o.Scale),
		Columns: []string{"dataset", "mode", "time_lookup_s", "time_nolookup_s", "speedup"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		base := o.Base
		base.ChunkSize = o.ChunkSmall
		for _, mode := range []struct {
			name   string
			maxmem int64
		}{
			{"default", 0},
			{"amc-full", p.MinFeasibleBytes(base)},
		} {
			withCfg := base
			withCfg.MaxMem = mode.maxmem
			if mode.name == "amc-full" {
				// The fullest setting cannot fit the table; measure the
				// nearest budget that can.
				withCfg.MaxMem = memacct.LookupFloorBytes(p.PlanConfigFor(base))
			}
			with, err := RunEPA(p, withCfg, mode.name+"-lookup", o.Reps)
			if err != nil {
				return nil, err
			}
			withoutCfg := base
			withoutCfg.MaxMem = mode.maxmem
			withoutCfg.DisableLookup = true
			without, err := RunEPA(p, withoutCfg, mode.name+"-nolookup", o.Reps)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, mode.name,
				seconds(with.Wall), seconds(without.Wall),
				fmt.Sprintf("%.2f", without.Wall.Seconds()/with.Wall.Seconds()),
			})
		}
	}
	return t, nil
}

// AblationBlockSize sweeps the branch-block size at a fixed tight budget.
func AblationBlockSize(o Options) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — branch block size at a tight budget (scale 1/%d)", o.Scale),
		Columns: []string{"dataset", "block", "time_s", "recomputes"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		for _, block := range []int{2, 8, 32, 128} {
			cfg := o.Base
			cfg.ChunkSize = o.ChunkSmall
			cfg.BlockSize = block
			cfg.DisableLookup = true
			min := p.MinFeasibleBytes(cfg)
			ref := p.ReferenceBytes(cfg)
			cfg.MaxMem = min + (ref-min)/8
			m, err := RunEPA(p, cfg, fmt.Sprintf("block%d", block), o.Reps)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%d", block), seconds(m.Wall),
				fmt.Sprintf("%d", m.Stats.CLVStats.Recomputes),
			})
		}
	}
	return t, nil
}

// AccuracyTable is an extension experiment (the PEWO accuracy procedure,
// not part of the paper's evaluation): placement accuracy of the EPA-NG
// engine and of the baseline, measured as the mean topological node
// distance (eND) between each query's best placement and the node the
// simulator evolved it from, plus how often the placement lands within one
// node of the truth.
func AccuracyTable(o Options) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Accuracy — expected node distance to true origins (scale 1/%d)", o.Scale),
		Columns: []string{"dataset", "tool", "mean_best_LWR", "mean_eND", "within_1_node"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		origins := p.Dataset.QueryOrigins[:len(p.Queries)]

		epaM, err := RunEPA(p, o.Base, "accuracy-epa", 1)
		if err != nil {
			return nil, err
		}
		epaSum := analyze.Summarize(p.Tree, epaM.Result.Queries)
		epaAcc, err := analyze.Accuracy(p.Tree, epaM.Result.Queries, origins)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, "EPA-NG",
			fmt.Sprintf("%.3f", epaSum.MeanBestLWR),
			fmt.Sprintf("%.3f", epaAcc.MeanNodeDist),
			fmt.Sprintf("%.3f", within1(epaAcc)),
		})

		_, ppRes, err := RunPplacer(p, pplacer.Config{}, "accuracy-pplacer", 1)
		if err != nil {
			return nil, err
		}
		ppSum := analyze.Summarize(p.Tree, ppRes)
		ppAcc, err := analyze.Accuracy(p.Tree, ppRes, origins)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, "pplacer",
			fmt.Sprintf("%.3f", ppSum.MeanBestLWR),
			fmt.Sprintf("%.3f", ppAcc.MeanNodeDist),
			fmt.Sprintf("%.3f", within1(ppAcc)),
		})
	}
	return t, nil
}

// BayesAgreement is the differential experiment behind the Bayes scoring
// mode: every dataset's queries are placed under both scoring modes, and the
// table reports how often the two modes agree on the best edge, how similar
// their candidate rankings are (Spearman rank correlation over the shared
// candidate edges), and how decisive or uncertain the posterior mode is
// (mean best post_prob, mean EDPL).
func BayesAgreement(o Options) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Differential — ML vs Bayes scoring agreement (scale 1/%d)", o.Scale),
		Columns: []string{"dataset", "queries", "top1_agree", "rank_corr",
			"mean_best_pp", "mean_edpl"},
	}
	for _, name := range o.datasets() {
		p, err := o.prepare(name)
		if err != nil {
			return nil, err
		}
		mlCfg := o.Base
		mlCfg.Scoring = placement.ScoringML
		mlCfg.EDPL = false
		mlM, err := RunEPA(p, mlCfg, "diff-ml", 1)
		if err != nil {
			return nil, err
		}
		bCfg := o.Base
		bCfg.Scoring = placement.ScoringBayes
		bCfg.EDPL = true
		bM, err := RunEPA(p, bCfg, "diff-bayes", 1)
		if err != nil {
			return nil, err
		}
		ml, bayes := mlM.Result.Queries, bM.Result.Queries
		if len(ml) != len(bayes) {
			return nil, fmt.Errorf("experiments: %s: ml placed %d queries, bayes placed %d", name, len(ml), len(bayes))
		}
		var n, agree, corrN int
		var corrSum, ppSum, edplSum float64
		for i := range ml {
			if len(ml[i].Placements) == 0 || len(bayes[i].Placements) == 0 {
				continue
			}
			n++
			if ml[i].Placements[0].EdgeNum == bayes[i].Placements[0].EdgeNum {
				agree++
			}
			ppSum += bayes[i].Placements[0].PostProb
			if bayes[i].EDPL != nil {
				edplSum += *bayes[i].EDPL
			}
			if rho, ok := rankCorrelation(ml[i].Placements, bayes[i].Placements); ok {
				corrSum += rho
				corrN++
			}
		}
		row := []string{name, fmt.Sprintf("%d", n), "n/a", "n/a", "n/a", "n/a"}
		if n > 0 {
			row[2] = fmt.Sprintf("%.3f", float64(agree)/float64(n))
			row[4] = fmt.Sprintf("%.4f", ppSum/float64(n))
			row[5] = fmt.Sprintf("%.5f", edplSum/float64(n))
		}
		if corrN > 0 {
			row[3] = fmt.Sprintf("%.3f", corrSum/float64(corrN))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// rankCorrelation computes the Spearman rank correlation between two
// candidate orderings over their shared edges, each edge keeping its rank in
// its own full list (ok=false when fewer than two edges are shared or either
// induced ranking is constant). Iteration follows a's order, so the result
// is deterministic.
func rankCorrelation(a, b []jplace.Placement) (float64, bool) {
	rb := make(map[int]int, len(b))
	for j, p := range b {
		rb[p.EdgeNum] = j
	}
	var xs, ys []float64
	for i, p := range a {
		if j, ok := rb[p.EdgeNum]; ok {
			xs = append(xs, float64(i))
			ys = append(ys, float64(j))
		}
	}
	if len(xs) < 2 {
		return 0, false
	}
	var sx, sy float64
	for k := range xs {
		sx += xs[k]
		sy += ys[k]
	}
	mx, my := sx/float64(len(xs)), sy/float64(len(ys))
	var cov, vx, vy float64
	for k := range xs {
		dx, dy := xs[k]-mx, ys[k]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, false
	}
	return cov / math.Sqrt(vx*vy), true
}

func within1(rep analyze.AccuracyReport) float64 {
	if rep.Queries == 0 {
		return 0
	}
	return float64(rep.Histogram[0]+rep.Histogram[1]) / float64(rep.Queries)
}

// ByName dispatches an experiment by its DESIGN.md identifier.
func ByName(name string, o Options) (*Table, error) {
	switch name {
	case "table1":
		return Table1(o)
	case "table2":
		return Table2(o)
	case "fig3":
		return Fig3(o)
	case "fig4":
		return Fig4(o)
	case "fig5":
		return Fig5(o)
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "lookup":
		return LookupSpeedup(o)
	case "ablation-blocks":
		return AblationBlockSize(o)
	case "accuracy":
		return AccuracyTable(o)
	case "bayes":
		return BayesAgreement(o)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

// ExperimentNames lists all experiment identifiers in DESIGN.md order.
func ExperimentNames() []string {
	names := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"lookup", "ablation-blocks", "accuracy", "bayes"}
	sort.Strings(names)
	return names
}
