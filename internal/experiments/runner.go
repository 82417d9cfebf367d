// Package experiments is the PEWO-equivalent measurement harness: it runs
// the placement tools over the parameter sweeps of the paper's evaluation
// section and renders the same tables and figure series. Each experiment in
// DESIGN.md's per-experiment index has a function here; cmd/pewo drives them
// and bench_test.go wraps them as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// Prepared is a dataset compiled into the structures the engines consume.
type Prepared struct {
	Dataset *workload.Dataset
	Tree    *tree.Tree
	Part    *phylo.Partition
	Queries []placement.Query
}

// Prepare compresses the reference alignment, builds the partition, and
// encodes the queries.
func Prepare(ds *workload.Dataset) (*Prepared, error) {
	comp, err := seq.Compress(ds.RefMSA)
	if err != nil {
		return nil, err
	}
	part, err := phylo.NewPartition(ds.Model, ds.Rates, comp, ds.Tree)
	if err != nil {
		return nil, err
	}
	queries, err := placement.EncodeQueries(ds.Alphabet, ds.Queries, ds.RefMSA.Width())
	if err != nil {
		return nil, err
	}
	return &Prepared{Dataset: ds, Tree: ds.Tree, Part: part, Queries: queries}, nil
}

// PlanConfigFor is the budget planner's view of the prepared dataset under an
// engine configuration, as the engine itself derives it.
func (p *Prepared) PlanConfigFor(cfg placement.Config) memacct.PlanConfig {
	return placement.PlanConfigFor(p.Part, p.Tree, cfg)
}

// ReferenceBytes returns the planned reference-mode footprint.
func (p *Prepared) ReferenceBytes(cfg placement.Config) int64 {
	return memacct.ReferenceFootprint(p.PlanConfigFor(cfg))
}

// MinFeasibleBytes returns the smallest accepted memory limit.
func (p *Prepared) MinFeasibleBytes(cfg placement.Config) int64 {
	return memacct.MinFeasibleBytes(p.PlanConfigFor(cfg))
}

// Measurement is one measured placement run.
type Measurement struct {
	Dataset   string
	Label     string
	Wall      time.Duration // mean over repetitions
	Fastest   time.Duration // fastest repetition (used for PE)
	PeakBytes int64
	Stats     placement.RunStats
	Result    *placement.Result
}

// RunEPA builds an engine with cfg and places all queries, repeated reps
// times (the paper uses 5); Wall is the mean, Fastest the minimum.
func RunEPA(p *Prepared, cfg placement.Config, label string, reps int) (*Measurement, error) {
	if reps <= 0 {
		reps = 1
	}
	m := &Measurement{Dataset: p.Dataset.Name, Label: label, Fastest: time.Duration(1<<62 - 1)}
	record := recorderEnabled()
	var total time.Duration
	var report placement.Report
	for r := 0; r < reps; r++ {
		runCfg := cfg
		if record && r == reps-1 {
			// Telemetry on the final repetition only: the measured reps stay
			// exactly what a non-recorded run would execute.
			runCfg.Telemetry = telemetry.NewSink()
		}
		start := time.Now()
		eng, err := placement.New(p.Part, p.Tree, runCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", p.Dataset.Name, label, err)
		}
		res, err := eng.Place(p.Queries)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("experiments: %s/%s: %w", p.Dataset.Name, label, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		if elapsed < m.Fastest {
			m.Fastest = elapsed
		}
		m.PeakBytes = eng.Stats().PeakBytes
		m.Stats = eng.Stats()
		m.Result = res
		if runCfg.Telemetry != nil {
			report = eng.Report()
		}
		eng.Close()
	}
	m.Wall = total / time.Duration(reps)
	if record {
		recordEPA(m, reps, report)
	}
	return m, nil
}

// RunPplacer measures the baseline tool analogously.
func RunPplacer(p *Prepared, cfg pplacer.Config, label string, reps int) (*Measurement, []jplace.Placements, error) {
	if reps <= 0 {
		reps = 1
	}
	m := &Measurement{Dataset: p.Dataset.Name, Label: label, Fastest: time.Duration(1<<62 - 1)}
	record := recorderEnabled()
	var total time.Duration
	var report pplacer.Report
	var out []jplace.Placements
	for r := 0; r < reps; r++ {
		runCfg := cfg
		if record && r == reps-1 {
			runCfg.Telemetry = telemetry.NewSink()
		}
		start := time.Now()
		eng, err := pplacer.New(p.Part, p.Tree, runCfg)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: pplacer %s/%s: %w", p.Dataset.Name, label, err)
		}
		res, err := eng.Place(p.Queries)
		if err != nil {
			eng.Close()
			return nil, nil, fmt.Errorf("experiments: pplacer %s/%s: %w", p.Dataset.Name, label, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		if elapsed < m.Fastest {
			m.Fastest = elapsed
		}
		m.PeakBytes = eng.Stats().PeakBytes
		out = res
		if runCfg.Telemetry != nil {
			report = eng.Report()
		}
		eng.Close()
	}
	m.Wall = total / time.Duration(reps)
	if record {
		recordPplacer(m, reps, report)
	}
	return m, out, nil
}

// Table is a rendered experiment result: a title, column headers and rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for the cell content this package produces).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

func mib(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
