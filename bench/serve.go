package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
	"phylomem/internal/tree"
)

// placedProc is one running placed server, started on an ephemeral loopback
// port with the shipped defaults.
type placedProc struct {
	cmd     *exec.Cmd
	out     *outputWatch
	base    string // http://127.0.0.1:port
	client  *http.Client
	started time.Time // just before exec
}

// outputWatch collects a child's standard output and announces the listen
// address as soon as the "serving ... on ADDR" line appears.
type outputWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	seen bool
}

var servingLine = regexp.MustCompile(`serving \d+ tree\(s\) on (\S+)`)

func (w *outputWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.seen {
		if m := servingLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.seen = true
			w.addr <- string(m[1]) // buffered: one send ever
		}
	}
	return len(p), nil
}

func (w *outputWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startPlaced launches the server and returns once /healthz answers 200.
func (r *run) startPlaced(in *inputs) (*placedProc, error) {
	p := &placedProc{out: &outputWatch{addr: make(chan string, 1)}}
	p.cmd = r.launched("placed",
		"--tree", in.treeFile, "--ref-msa", in.refFile,
		"--threads", fmt.Sprint(r.spec.threads), "--listen", "127.0.0.1:0")
	p.cmd.Stdout = p.out
	p.cmd.Stderr = os.Stderr
	// A group of its own, so that kill ends launch and the server together.
	p.cmd.SysProcAttr.Setpgid = true
	p.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: closedClients, DisableCompression: true},
	}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case addr := <-p.out.addr:
		p.base = "http://" + addr
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("placed did not announce a listen address:\n%s", p.out.String())
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := p.client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("placed /healthz never answered 200 (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends a server that did not come up.
func (p *placedProc) kill() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	p.cmd.Wait()
}

// stop drains the server with SIGTERM (handed on by launch) and reports
// whether it shut down cleanly: exit code 0 and the "drained" summary line,
// which placed prints only after the drain and every engine's Close audits
// pass.
func (p *placedProc) stop() (rssMiB float64, clean bool) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	err := p.cmd.Wait()
	p.client.CloseIdleConnections()
	res, reportErr := launchReport([]byte(p.out.String()))
	clean = err == nil && reportErr == nil && strings.Contains(p.out.String(), "placed: drained;")
	if !clean {
		fmt.Fprintf(os.Stderr, "bench: placed shutdown: %v %v\n%s", err, reportErr, p.out.String())
	}
	return res.rssMiB, clean
}

// response is one request as the client saw it.
type response struct {
	req     int // index into the request stream
	status  int
	body    []byte
	err     error
	latency time.Duration // from the send (closed loop) or the due time (open loop)
	lag     time.Duration // open loop: how late the generator sent it
}

func (p *placedProc) post(req *request, idx int, from time.Time) response {
	res := response{req: idx}
	resp, err := p.client.Post(p.base+"/v1/place", "text/plain", bytes.NewReader(req.body))
	if err != nil {
		res.err = err
		res.latency = time.Since(from)
		return res
	}
	res.status = resp.StatusCode
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latency = time.Since(from)
	return res
}

// serveLoad is the load one server is put under, derived from the seconds
// of load it is given. The request stream is generated to hold requests()
// entries, so phase B always has its nB requests whatever phase A used.
type serveLoad struct {
	durA time.Duration // phase A lasts this long, or capA requests if those come first
	capA int
	nB   int
}

func loadFor(seconds float64) serveLoad {
	durA := time.Duration(phaseAShare * seconds * float64(time.Second))
	return serveLoad{
		durA: durA,
		// A closed-loop client cannot finish requests faster than the batcher's
		// --max-latency timer releases its partial batches, so this is three
		// times what the seed commit sends. A server that beats the timer ends
		// phase A at capA requests, early but measured.
		capA: int(math.Ceil(durA.Seconds() * closedClients / placedMaxLatency.Seconds())),
		nB:   int(phaseBShare * seconds * openRatePerSec),
	}
}

// load is what each server of this run is put under: the timed pass splits
// --seconds over one server per dataset, the traced pass gives its single
// server half of it.
func (r *run) load(traced bool) serveLoad {
	if traced {
		return loadFor(r.seconds / 2)
	}
	return loadFor(r.seconds / float64(r.spec.datasets))
}

// requests is the stream length: the warm-up request, then both phases.
func (l serveLoad) requests() int { return 1 + l.capA + l.nB }

// closedLoop is phase A: `clients` callers each send their next request as
// soon as the previous one completes, until dur has passed or stream[lo:hi]
// is used up. Requests are taken in order, so the phase used
// stream[lo:lo+len(out)].
func (p *placedProc) closedLoop(stream []request, lo, hi, clients int, dur time.Duration) (out []response, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(lo))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				res := p.post(&stream[i], i, time.Now())
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop is phase B: the requests of reqs (stream[first:first+len(reqs)])
// arrive on a fixed schedule of `rate` per second whatever the server does,
// carried by at most `conns` connections. Each latency runs from the
// request's due time, so a stall is charged to every request it delays; lag
// records how late the generator itself was.
func (p *placedProc) openLoop(reqs []request, first, rate, conns int) []response {
	type due struct {
		idx int
		at  time.Time
	}
	// Sized to the number of sends so the scheduler never blocks on a slow
	// server: arrivals stay on schedule and wait in the queue instead.
	queue := make(chan due, len(reqs))
	out := make([]response, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				lag := time.Since(d.at)
				res := p.post(&reqs[d.idx], first+d.idx, d.at)
				res.lag = lag
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		at := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
		time.Sleep(time.Until(at))
		queue <- due{i, at}
	}
	close(queue)
	wg.Wait()
	return out
}

// serveChecker applies the output checks to every response of a serve run.
type serveChecker struct {
	r      *run
	in     *inputs
	stream []request
	// first[q] is the canonical placement of pool query q as first answered;
	// every later answer (a result-cache hit, or a coalesced batch) must
	// equal it. verified[q] is epang's answer for the leading pool queries.
	first    map[int][]byte
	best     map[int]jplace.Placements
	verified map[int][]byte
}

// check counts res as an attempted operation and validates it; it returns
// the parsed document of a correct 200 and nil otherwise.
func (c *serveChecker) check(res response) *jplace.Document {
	c.r.attempted++
	if res.err != nil || res.status != http.StatusOK {
		c.r.failed++
		fmt.Fprintf(os.Stderr, "bench: request %d: status %d err %v\n", res.req, res.status, res.err)
		return nil
	}
	req := &c.stream[res.req]
	doc, err := jplace.Read(bytes.NewReader(res.body))
	if err != nil {
		c.r.fail("response %d does not parse: %v", res.req, err)
		return nil
	}
	names := make([]string, len(req.queries))
	for i, q := range req.queries {
		names[i] = c.in.ds.Queries[q].Label
	}
	if msg := checkQueries(c.in, doc.Queries, names); msg != "" {
		c.r.fail("response %d: %s", res.req, msg)
		return nil
	}
	for i, q := range req.queries {
		canon := canonical(doc.Queries[i : i+1])
		if prev, ok := c.first[q]; !ok {
			c.first[q] = canon
			c.best[q] = doc.Queries[i]
		} else if !bytes.Equal(prev, canon) {
			c.r.fail("response %d: query %s answered differently from its first answer", res.req, names[i])
			return nil
		}
		if want, ok := c.verified[q]; ok && !bytes.Equal(want, canon) {
			c.r.fail("response %d: query %s differs from epang's placement", res.req, names[i])
			return nil
		}
	}
	return doc
}

// accuracy is the mean node distance over every distinct query answered.
func (c *serveChecker) accuracy() (float64, error) {
	var qs []jplace.Placements
	var origins []*tree.Node
	for q := 0; q < len(c.in.ds.Queries); q++ {
		if p, ok := c.best[q]; ok {
			qs = append(qs, p)
			origins = append(origins, c.in.origins[q])
		}
	}
	acc, err := analyze.Accuracy(c.in.tr, qs, origins)
	return acc.MeanNodeDist, err
}

// newServeChecker places the leading pool queries with epang once (not
// timed) so served placements can be held to the batch tool's — the
// mode-equivalence invariant, through the server.
func (r *run) newServeChecker(in *inputs, stream []request) *serveChecker {
	c := &serveChecker{r: r, in: in, stream: stream,
		first: map[int][]byte{}, best: map[int]jplace.Placements{}, verified: map[int][]byte{}}
	qfile := filepath.Join(in.dir, "verify.fasta")
	out := filepath.Join(in.dir, "verify.jplace")
	if err := os.WriteFile(qfile, fastaBytes(in.ds.Queries[:serveVerifyCount]), 0o644); err != nil {
		r.fail("writing %s: %v", qfile, err)
		return c
	}
	if _, ok := r.runEpang(r.spec.epangArgs(in, qfile, out, 0)); !ok {
		return c
	}
	if res, ok := r.checkJplace(in, out, queryNames(in, serveVerifyCount)); ok {
		for q := range res.doc.Queries {
			c.verified[q] = canonical(res.doc.Queries[q : q+1])
		}
	}
	return c
}

// serveSetup is one start → first 200 from a warm-up request cycle. The
// warm-up is stream[0], so the phases start at stream[1].
func (r *run) serveSetup(in *inputs, c *serveChecker) (p *placedProc, setup time.Duration, err error) {
	r.attempted++ // the server's lifecycle: start, serve, drain, exit 0
	p, err = r.startPlaced(in)
	if err != nil {
		r.failed++
		return nil, 0, err
	}
	res := p.post(&c.stream[0], 0, p.started)
	c.check(res)
	return p, res.latency, nil
}

func (r *run) stopPlaced(p *placedProc) float64 {
	rss, clean := p.stop()
	if !clean {
		r.failed++
	}
	return rss
}

// timedServe is the tracing-off pass of serve-mixed. Each of the run's
// datasets gets its own server: start → warm-up request → phase A (closed
// loop) → phase B (open loop) → SIGTERM, with an equal share of --seconds.
// Latencies are pooled over the servers; set-up and max-RSS are averaged.
func (r *run) timedServe(ins []*inputs) error {
	load := r.load(false)
	var setups, rss, wallsA, latB []float64
	var elapsedA time.Duration
	answered, sentA, sentB := 0, 0, 0
	for _, in := range ins {
		stream := requestStream(in)
		c := r.newServeChecker(in, stream)
		p, d, err := r.serveSetup(in, c)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		phaseA, elapsed := p.closedLoop(stream, 1, 1+load.capA, closedClients, load.durA)
		first := 1 + len(phaseA)
		phaseB := p.openLoop(stream[first:first+load.nB], first, openRatePerSec, openConnections)
		rss = append(rss, r.stopPlaced(p))
		elapsedA += elapsed
		sentA += len(phaseA)
		sentB += len(phaseB)
		for _, res := range phaseA {
			if c.check(res) != nil {
				wallsA = append(wallsA, res.latency.Seconds())
				answered += len(stream[res.req].queries)
			}
		}
		for _, res := range phaseB {
			if c.check(res) != nil {
				latB = append(latB, 1000*res.latency.Seconds())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: serve-mixed: %d servers; phase A %d requests in %.2fs, phase B %d requests at %d/s\n",
		len(ins), sentA, elapsedA.Seconds(), sentB, openRatePerSec)
	if len(wallsA) == 0 || len(latB) == 0 {
		r.fail("a phase has no correct response to measure (phase A %d of %d, phase B %d of %d)", len(wallsA), sentA, len(latB), sentB)
		r.unmeasured()
		return nil
	}
	r.set("wall_s", median(wallsA))
	r.set("setup_s", median(setups))
	r.set("throughput_qps", float64(answered)/elapsedA.Seconds())
	r.set("peak_rss_mib", mean(rss))
	r.set("lat_p50_ms", median(latB))
	r.set("lat_p90_ms", quantile(latB, 0.90))
	return nil
}

// scrape is the part of placed's /metrics document the traced pass reads.
type scrape struct {
	Tenants []struct {
		Report struct {
			RunStats struct {
				QueriesPlaced int   `json:"queries_placed"`
				Phase1NS      int64 `json:"phase1_ns"`
				Phase2NS      int64 `json:"phase2_ns"`
				PrecomputeNS  int64 `json:"precompute_ns"`
				LookupBuildNS int64 `json:"lookup_build_ns"`
				PlaceWallNS   int64 `json:"place_wall_ns"`
				PoolBusyNS    int64 `json:"pool_busy_ns"`
				Distinct      int   `json:"queries_distinct"`
				Deduped       int   `json:"queries_deduped"`
			} `json:"run_stats"`
			Memory struct {
				PeakBytes    int64 `json:"peak_bytes"`
				PlannedBytes int64 `json:"planned_bytes"`
			} `json:"memory"`
			Telemetry struct {
				Server struct {
					Requests       uint64 `json:"requests"`
					Rejected       uint64 `json:"rejected"`
					Batches        uint64 `json:"batches"`
					BatchedQueries uint64 `json:"batched_queries"`
					RequestLatency struct {
						Count uint64 `json:"count"`
						SumNS int64  `json:"sum_ns"`
					} `json:"request_latency"`
					BatchLatency struct {
						Count uint64 `json:"count"`
						SumNS int64  `json:"sum_ns"`
					} `json:"batch_latency"`
				} `json:"server"`
				Dedup struct {
					CacheHits   uint64 `json:"cache_hits"`
					CacheMisses uint64 `json:"cache_misses"`
				} `json:"dedup"`
			} `json:"telemetry"`
		} `json:"report"`
	} `json:"tenants"`
}

func (p *placedProc) scrapeMetrics() (*scrape, error) {
	resp, err := p.client.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s scrape
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	if len(s.Tenants) != 1 {
		return nil, fmt.Errorf("/metrics lists %d tenants, want 1", len(s.Tenants))
	}
	return &s, nil
}
