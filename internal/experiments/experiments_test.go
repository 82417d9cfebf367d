package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// quickOptions keeps experiment tests fast: tiny datasets, one repetition,
// short sweeps.
func quickOptions() Options {
	o := DefaultOptions(64)
	o.Reps = 1
	o.Threads = []int{1, 2}
	o.Fractions = []float64{0.6, 0.25}
	o.MaxQueries = 60
	return o
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not found in %v", col, tab.Columns)
	return ""
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("column %q row %d: %v", col, row, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	tab, err := Table1(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if cell(t, tab, 0, "name") != "neotrop" || cell(t, tab, 1, "type") != "AA" {
		t.Fatalf("table1 content wrong:\n%s", tab)
	}
	if !strings.Contains(tab.String(), "leaves") {
		t.Fatal("String() missing header")
	}
	if !strings.Contains(tab.CSV(), "neotrop") {
		t.Fatal("CSV() missing data")
	}
}

func TestFig3ShapesHold(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	tab, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("too few rows:\n%s", tab)
	}
	// Row 0 is the reference; the last row is the fullest memory saving.
	if cell(t, tab, 0, "maxmem_frac") != "ref" {
		t.Fatalf("first row is not the reference:\n%s", tab)
	}
	last := len(tab.Rows) - 1
	// Memory must fall and slowdown must rise toward the sweep's end.
	if cellFloat(t, tab, last, "mem_MiB") >= cellFloat(t, tab, 0, "mem_MiB") {
		t.Fatalf("fullest setting did not reduce memory:\n%s", tab)
	}
	// The wall-clock ratio is asserted only where both walls exceed the noise
	// floor: sweep-aware replacement keeps the floor within 10 % of the
	// reference, which single 30 ms walls cannot resolve. The extra work
	// itself is asserted below, machine-independently.
	const wallNoiseFloor = 0.25 // seconds
	if cellFloat(t, tab, 0, "time_s") > wallNoiseFloor && cellFloat(t, tab, last, "time_s") > wallNoiseFloor &&
		cellFloat(t, tab, last, "slowdown") <= 1.0 {
		t.Fatalf("fullest setting did not slow down:\n%s", tab)
	}
	// The fullest setting must have lost the lookup table (the cliff).
	if cell(t, tab, last, "lookup") != "off" {
		t.Fatalf("fullest setting still has the lookup table:\n%s", tab)
	}
	// Recomputes must grow as memory shrinks (machine-independent check):
	// none at full memory, more at the floor than at the first saving.
	if cellFloat(t, tab, 0, "recomputes") != 0 ||
		cellFloat(t, tab, last, "recomputes") <= cellFloat(t, tab, 1, "recomputes") {
		t.Fatalf("recomputes did not grow toward the memory floor:\n%s", tab)
	}
}

func TestFig4LowerFloorThanFig3(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	f3, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: the smaller chunk admits a lower memory floor.
	floor3 := cellFloat(t, f3, len(f3.Rows)-1, "mem_MiB")
	floor4 := cellFloat(t, f4, len(f4.Rows)-1, "mem_MiB")
	if floor4 >= floor3 {
		t.Fatalf("chunk-500 floor %.2f MiB not below chunk-5000 floor %.2f MiB", floor4, floor3)
	}
}

// TestTable2Ordering: memory falls from O to I to F, and F pays for its
// memory with recomputation while O recomputes nothing. Both are counts, so
// the test reads no clock.
func TestTable2Ordering(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"pro_ref"}
	tab, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	memO := cellFloat(t, tab, 0, "mem_O_MiB")
	memI := cellFloat(t, tab, 0, "mem_I_MiB")
	memF := cellFloat(t, tab, 0, "mem_F_MiB")
	if !(memF < memI && memI < memO) {
		t.Fatalf("memory not ordered F < I < O:\n%s", tab)
	}
	if recO, recF := cellFloat(t, tab, 0, "recomputes_O"), cellFloat(t, tab, 0, "recomputes_F"); recO != 0 || recF <= 0 {
		t.Fatalf("want no recomputes at O and some at F, got %v and %v:\n%s", recO, recF, tab)
	}
}

func TestFig5Shapes(t *testing.T) {
	o := quickOptions()
	tab, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8:\n%s", len(tab.Rows), tab)
	}
	// Index rows by (tool, dataset, memsave).
	find := func(tool, ds, memsave string) int {
		for i, r := range tab.Rows {
			if r[0] == tool && r[1] == ds && r[2] == memsave {
				return i
			}
		}
		t.Fatalf("row %s/%s/%s missing", tool, ds, memsave)
		return -1
	}
	for _, ds := range []string{"serratus", "pro_ref"} {
		epaOff := find("EPA-NG", ds, "off")
		ppOff := find("pplacer", ds, "off")
		ppOn := find("pplacer", ds, "on")
		// EPA-NG dominates pplacer in time (Fig. 5's headline).
		if cellFloat(t, tab, epaOff, "time_s") >= cellFloat(t, tab, ppOff, "time_s") {
			t.Fatalf("%s: EPA-NG off not faster than pplacer off:\n%s", ds, tab)
		}
		// pplacer's memory saving cuts its memory.
		if cellFloat(t, tab, ppOn, "mem_MiB") >= cellFloat(t, tab, ppOff, "mem_MiB") {
			t.Fatalf("%s: pplacer file mode did not cut memory:\n%s", ds, tab)
		}
	}
}

func TestFig6Structure(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"serratus"}
	tab, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	// 3 modes × 2 thread counts.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6:\n%s", len(tab.Rows), tab)
	}
	for i := range tab.Rows {
		pe := cellFloat(t, tab, i, "PE")
		if pe <= 0 {
			t.Fatalf("row %d PE = %g:\n%s", i, pe, tab)
		}
	}
}

func TestFig7RunsOnSerratus(t *testing.T) {
	o := quickOptions()
	tab, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[0] != "serratus" {
			t.Fatalf("Fig7 ran on %q", r[0])
		}
	}
}

func TestLookupSpeedup(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	tab, err := LookupSpeedup(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	// Under AMC the lookup must help (the paper's ≈23×; we only require >1
	// at miniature scale).
	for i := range tab.Rows {
		if cell(t, tab, i, "mode") == "amc-full" {
			if cellFloat(t, tab, i, "speedup") <= 1.0 {
				t.Fatalf("AMC lookup speedup <= 1:\n%s", tab)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	blocks, err := AblationBlockSize(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks.Rows) != 4 {
		t.Fatalf("block rows = %d:\n%s", len(blocks.Rows), blocks)
	}
}

func TestAccuracyTable(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	tab, err := AccuracyTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	for i := range tab.Rows {
		if v := cellFloat(t, tab, i, "mean_eND"); v > 4 {
			t.Fatalf("row %d mean eND %.2f too large:\n%s", i, v, tab)
		}
		if v := cellFloat(t, tab, i, "within_1_node"); v < 0.5 {
			t.Fatalf("row %d within-1 fraction %.2f too low:\n%s", i, v, tab)
		}
	}
}

func TestByNameDispatch(t *testing.T) {
	o := quickOptions()
	if _, err := ByName("table1", o); err != nil {
		t.Fatal(err)
	}
	// ablation-strategies went with the second replacement rule.
	for _, name := range []string{"nope", "ablation-strategies"} {
		if _, err := ByName(name, o); err == nil {
			t.Fatalf("unknown experiment %q accepted", name)
		}
	}
	if len(ExperimentNames()) != 11 || slices.Contains(ExperimentNames(), "ablation-strategies") {
		t.Fatalf("experiment names: %v", ExperimentNames())
	}
}

// TestBayesAgreementQuick runs the ML-vs-Bayes differential experiment on one
// small dataset and checks the agreement columns are populated and sane.
func TestBayesAgreementQuick(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"neotrop"}
	o.MaxQueries = 20
	tab, err := BayesAgreement(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	if v := cellFloat(t, tab, 0, "top1_agree"); v < 0.5 || v > 1 {
		t.Fatalf("top1_agree %.3f out of range:\n%s", v, tab)
	}
	if v := cellFloat(t, tab, 0, "mean_best_pp"); v <= 0 || v > 1 {
		t.Fatalf("mean_best_pp %.4f out of range:\n%s", v, tab)
	}
	if v := cellFloat(t, tab, 0, "mean_edpl"); v < 0 {
		t.Fatalf("mean_edpl %.5f negative:\n%s", v, tab)
	}
}

func TestPlotFor(t *testing.T) {
	tab := &Table{
		Columns: []string{"dataset", "maxmem_frac", "mem_MiB", "mem_frac", "time_s",
			"slowdown", "log2_slowdown", "lookup", "slots", "recomputes"},
		Rows: [][]string{
			{"neotrop", "ref", "10", "1.0", "1.0", "1.0", "0.0", "on", "5", "0"},
			{"neotrop", "0.5", "5", "0.5", "2.0", "2.0", "1.0", "on", "3", "10"},
			{"pro_ref", "ref", "50", "1.0", "4.0", "1.0", "0.0", "on", "9", "0"},
		},
	}
	plot, ok := PlotFor("fig3", tab)
	if !ok || !strings.Contains(plot, "neotrop") || !strings.Contains(plot, "log2(slowdown)") {
		t.Fatalf("fig3 plot: ok=%v\n%s", ok, plot)
	}
	if _, ok := PlotFor("table1", tab); ok {
		t.Fatal("table1 should not plot")
	}
	if _, ok := PlotFor("fig6", tab); ok {
		t.Fatal("fig6 with wrong columns should not plot")
	}

	pe := &Table{
		Columns: []string{"dataset", "mode", "threads_total", "time_s", "speedup", "PE"},
		Rows: [][]string{
			{"serratus", "off", "1", "1.0", "1.0", "1.0"},
			{"serratus", "off", "4", "0.4", "2.5", "0.625"},
			{"serratus", "full", "2", "1.2", "0.8", "0.4"},
		},
	}
	plot6, ok := PlotFor("fig6", pe)
	if !ok || !strings.Contains(plot6, "serratus/off") || !strings.Contains(plot6, "parallel efficiency") {
		t.Fatalf("fig6 plot: ok=%v\n%s", ok, plot6)
	}
	f5 := &Table{
		Columns: []string{"tool", "dataset", "memsave", "time_s", "mem_MiB"},
		Rows: [][]string{
			{"EPA-NG", "serratus", "off", "1.0", "30"},
			{"pplacer", "serratus", "off", "9.0", "60"},
		},
	}
	plot5, ok := PlotFor("fig5", f5)
	if !ok || !strings.Contains(plot5, "pplacer/serratus") {
		t.Fatalf("fig5 plot: ok=%v\n%s", ok, plot5)
	}
}
