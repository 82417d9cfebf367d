package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
)

// execResult is one run of a program as the operating system saw it.
type execResult struct {
	wall   time.Duration // exec → exit
	rssMiB float64       // max-RSS from the wait4 rusage
}

// launched is the command line that runs one of the programs under test
// through bench/launch, which takes the time and the rusage: a direct child
// of this process would report this process's own peak RSS as its max-RSS
// whenever that is the larger (see launch/main.go). Should this process die
// before it has waited for the command (a panic, a kill from outside), the
// kernel kills launch, and launch's own child the same way, so no run leaves
// a process behind.
func (r *run) launched(program string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.binDir, "launch"), append([]string{filepath.Join(r.binDir, program)}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// launchReport parses the line launch prints last, after the program's own
// standard output.
func launchReport(stdout []byte) (execResult, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var report struct {
		WallNS    int64 `json:"wall_ns"`
		MaxRSSKiB int64 `json:"max_rss_kib"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &report); err != nil {
		return execResult{}, fmt.Errorf("no report from launch: %w", err)
	}
	return execResult{wall: time.Duration(report.WallNS), rssMiB: float64(report.MaxRSSKiB) / 1024}, nil
}

// runEpang executes the batch binary once and counts it as an attempted
// operation; a non-zero exit is a failed one (the caller gets ok=false and
// the run goes on, so the result line can report it).
func (r *run) runEpang(args []string) (execResult, bool) {
	cmd := r.launched("epang", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	r.attempted++
	err := cmd.Run()
	var res execResult
	if err == nil {
		res, err = launchReport(stdout.Bytes())
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: epang %s: %v\n%s", describe(args, r.workDir), err, stderr.String())
		return res, false
	}
	return res, true
}

// checkedOutput is a jplace result that passed the per-run output checks.
type checkedOutput struct {
	doc   *jplace.Document
	canon []byte // canonical encoding of the placements, for equality checks
}

// checkJplace applies the output checks every run must pass: the file
// parses, carries exactly one entry per query name in input order, and
// every placement sits on an edge of the reference tree.
func (r *run) checkJplace(in *inputs, path string, names []string) (*checkedOutput, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		r.fail("reading %s: %v", filepath.Base(path), err)
		return nil, false
	}
	doc, err := jplace.Read(bytes.NewReader(data))
	if err != nil {
		r.fail("%s does not parse: %v", filepath.Base(path), err)
		return nil, false
	}
	if msg := checkQueries(in, doc.Queries, names); msg != "" {
		r.fail("%s: %s", filepath.Base(path), msg)
		return nil, false
	}
	return &checkedOutput{doc: doc, canon: canonical(doc.Queries)}, true
}

// checkQueries is the part of the output check shared with HTTP responses.
func checkQueries(in *inputs, got []jplace.Placements, names []string) string {
	if len(got) != len(names) {
		return fmt.Sprintf("%d entries for %d queries", len(got), len(names))
	}
	for i, q := range got {
		if q.Name != names[i] {
			return fmt.Sprintf("entry %d is %q, want %q", i, q.Name, names[i])
		}
		if len(q.Placements) == 0 {
			return fmt.Sprintf("query %q has no placement", q.Name)
		}
	}
	if err := analyze.ValidateEdges(in.tr, got); err != nil {
		return err.Error()
	}
	return ""
}

// canonical renders placements in a form two runs can be compared by.
func canonical(qs []jplace.Placements) []byte {
	out, err := json.Marshal(qs)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	return out
}

func queryNames(in *inputs, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = in.ds.Queries[i].Label
	}
	return names
}

// batchCase is one of a run's datasets and what the timed pass measured on
// it.
type batchCase struct {
	in                  *inputs
	names               []string
	maxMem              int64
	fullArgs, setupArgs []string
	outFile             string
	// reference is the full-memory run's output (memory-limited workloads
	// only); first is this dataset's first timed output.
	reference, first   *checkedOutput
	walls, setups, rss []float64
	lastFull, lastSet  time.Duration
}

// unmeasured fills the end-to-end metrics of a timed pass that lost a
// dataset to a failed run: the failure is already counted and makes the
// result incorrect; there is no honest time to report beside it.
func (r *run) unmeasured() {
	for _, n := range endToEndNames {
		r.set(n, -1)
	}
}

// timedBatch is the tracing-off pass of a batch workload. It visits the
// run's datasets round-robin, on each visit running the real binary once on
// the full query file and (for the first setupRepsPerCase visits) once on a
// one-query file, until --seconds is used up; every dataset is visited at
// least once. Every output is checked. A dataset's time is the fastest of
// its runs: contention on a shared box only ever adds time, and here it adds
// 10-80 % to one run in two, so the minimum repeats within a few percent
// where the median of a handful does not. Its max-RSS, whose noise has no
// sign, is the median. A metric is the mean over the datasets.
func (r *run) timedBatch(ins []*inputs) error {
	sp := r.spec
	cases := make([]*batchCase, len(ins))
	for k, in := range ins {
		maxMem, _, err := in.maxMemBytes(sp)
		if err != nil {
			return err
		}
		c := &batchCase{in: in, names: queryNames(in, len(in.ds.Queries)), maxMem: maxMem, outFile: filepath.Join(in.dir, "result.jplace")}
		c.fullArgs = sp.epangArgs(in, in.queryFile, c.outFile, maxMem)
		c.setupArgs = sp.epangArgs(in, in.oneQueryFile, filepath.Join(in.dir, "one.jplace"), maxMem)
		cases[k] = c
		// The memory-limited workloads must place exactly as a full-memory
		// run of the same input does (the repo's core invariant). Not timed.
		if maxMem > 0 {
			refFile := filepath.Join(in.dir, "fullmem.jplace")
			if _, ok := r.runEpang(sp.fullMemoryArgs(in, refFile)); ok {
				c.reference, _ = r.checkJplace(in, refFile, c.names)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s: epang %s\n", sp.name, describe(cases[0].fullArgs, cases[0].in.dir))

	start := time.Now()
	budget := time.Duration(r.seconds * float64(time.Second))
	rounds := 0
	for ; ; rounds++ {
		c := cases[rounds%len(cases)]
		wantSetup := len(c.setups) < setupRepsPerCase
		next := c.lastFull
		if wantSetup {
			next += c.lastSet
		}
		// Another visit only while a dataset is still unvisited or the visit
		// is expected to fit.
		if rounds >= len(cases) && budget-time.Since(start) < next {
			break
		}
		if wantSetup {
			res, ok := r.runEpang(c.setupArgs)
			if !ok {
				break
			}
			c.setups = append(c.setups, res.wall.Seconds())
			c.lastSet = res.wall
		}
		res, ok := r.runEpang(c.fullArgs)
		if !ok {
			break
		}
		c.lastFull = res.wall
		out, ok := r.checkJplace(c.in, c.outFile, c.names)
		if !ok {
			break
		}
		c.walls = append(c.walls, res.wall.Seconds())
		c.rss = append(c.rss, res.rssMiB)
		switch {
		case c.first == nil:
			c.first = out
			if c.reference != nil && (!bytes.Equal(out.canon, c.reference.canon) || out.doc.Tree != c.reference.doc.Tree) {
				r.fail("dataset %d: placements under --maxmem %d differ from the full-memory run", rounds%len(cases), c.maxMem)
			}
		case !bytes.Equal(out.canon, c.first.canon):
			r.fail("dataset %d: run %d placed differently from run 1", rounds%len(cases), len(c.walls))
		}
	}
	var walls, setups, rss []float64
	for _, c := range cases {
		if len(c.walls) == 0 || len(c.setups) == 0 {
			r.unmeasured()
			return nil
		}
		walls = append(walls, slices.Min(c.walls))
		setups = append(setups, slices.Min(c.setups))
		rss = append(rss, median(c.rss))
		fmt.Fprintf(os.Stderr, "bench: %s: dataset seed %d: %d runs, wall %.4fs set-up %.4fs rss %.1f MiB\n",
			sp.name, c.in.seed, len(c.walls), slices.Min(c.walls), slices.Min(c.setups), median(c.rss))
	}
	wall, setup := mean(walls), mean(setups)
	fmt.Fprintf(os.Stderr, "bench: %s: %d visits over %d datasets\n", sp.name, rounds, len(cases))
	r.set("wall_s", wall)
	r.set("setup_s", setup)
	r.set("throughput_qps", float64(len(cases[0].names))/(wall-setup))
	r.set("peak_rss_mib", mean(rss))
	// The driver wants every end-to-end metric from every workload. A batch
	// user waits for the run, so both latencies are aliases of wall_s here
	// and carry no information of their own; they are measured on
	// serve-mixed.
	r.set("lat_p50_ms", 1000*wall)
	r.set("lat_p90_ms", 1000*wall)
	return nil
}
