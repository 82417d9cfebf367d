package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// tracedServe is the traced pass of serve-mixed. Half-length phases A and B
// run against the real server with /metrics scraped before and after; then
// the phase-A request stream is replayed in-process through the same
// decode → result cache → Batcher.Submit → encode sequence, with a span
// around each call, and its output is held to the server's.
func (r *run) tracedServe(in *inputs) error {
	stream := requestStream(in)
	c := r.newServeChecker(in, stream)
	p, _, err := r.serveSetup(in, c)
	if err != nil {
		return err
	}
	before, err := p.scrapeMetrics()
	if err != nil {
		r.stopPlaced(p)
		return err
	}
	load := r.load(true)
	phaseA, _ := p.closedLoop(stream, 1, 1+load.capA, closedClients, load.durA)
	afterA, errA := p.scrapeMetrics()
	first := 1 + len(phaseA)
	phaseB := p.openLoop(stream[first:first+load.nB], first, openRatePerSec, openConnections)
	afterB, errB := p.scrapeMetrics()
	rss := r.stopPlaced(p)
	if errA != nil || errB != nil {
		return fmt.Errorf("scraping /metrics: %v / %v", errA, errB)
	}

	// Requests per phase, as the client saw them.
	served := map[int][]byte{} // request index → canonical placements
	var clientMS, lagMS, wallsA []float64
	count := func(phase []response, suffix string) {
		ok := 0
		for _, res := range phase {
			if doc := c.check(res); doc != nil {
				ok++
				clientMS = append(clientMS, 1000*(res.latency-res.lag).Seconds())
				served[res.req] = canonical(doc.Queries)
			}
		}
		r.set("placed.requests_sent_"+suffix, float64(len(phase)))
		r.set("placed.requests_ok_"+suffix, float64(ok))
		r.set("placed.requests_failed_"+suffix, float64(len(phase)-ok))
	}
	count(phaseA, "a")
	count(phaseB, "b")
	for _, res := range phaseA {
		wallsA = append(wallsA, 1000*res.latency.Seconds())
	}
	for _, res := range phaseB {
		lagMS = append(lagMS, 1000*res.lag.Seconds())
	}
	r.set("placed.generator_lag_p99_ms", quantile(lagMS, 0.99))
	if acc, err := c.accuracy(); err == nil {
		r.set("analyze.mean_node_dist", acc)
	}

	// Server-side view over both phases: deltas of the /metrics counters.
	b0, b1 := before.Tenants[0].Report, afterB.Tenants[0].Report
	sv0, sv1 := b0.Telemetry.Server, b1.Telemetry.Server
	dReq := float64(sv1.RequestLatency.Count - sv0.RequestLatency.Count)
	serverMS := ratio(float64(sv1.RequestLatency.SumNS-sv0.RequestLatency.SumNS)/1e6, dReq)
	batchMS := ratio(float64(sv1.BatchLatency.SumNS-sv0.BatchLatency.SumNS)/1e6, float64(sv1.BatchLatency.Count-sv0.BatchLatency.Count))
	r.set("placed.server_latency_mean_ms", serverMS)
	r.set("placed.engine_batch_mean_ms", batchMS)
	r.set("placed.queue_encode_mean_ms", serverMS-batchMS)
	r.set("placed.transport_mean_ms", mean(clientMS)-serverMS)
	r.set("placed.rejected_share", ratio(float64(sv1.Rejected-sv0.Rejected), float64(sv1.Requests-sv0.Requests+sv1.Rejected-sv0.Rejected)))
	r.set("placement.batch_occupancy", ratio(float64(sv1.BatchedQueries-sv0.BatchedQueries), float64(sv1.Batches-sv0.Batches)))
	d0, d1 := b0.Telemetry.Dedup, b1.Telemetry.Dedup
	hits, misses := float64(d1.CacheHits-d0.CacheHits), float64(d1.CacheMisses-d0.CacheMisses)
	r.set("placement.cache_hit_ratio", ratio(hits, hits+misses))

	rs0, rs1 := b0.RunStats, b1.RunStats
	placedQ := float64(rs1.QueriesPlaced - rs0.QueriesPlaced)
	r.set("placement.phase1_ns_per_query", ratio(float64(rs1.Phase1NS-rs0.Phase1NS), placedQ))
	r.set("placement.phase2_ns_per_query", ratio(float64(rs1.Phase2NS-rs0.Phase2NS), placedQ))
	r.set("placement.lookup_build_ms", float64(rs1.LookupBuildNS)/1e6)
	r.set("placement.dedup_fold_ratio", ratio(float64(rs1.Deduped-rs0.Deduped), float64(rs1.Distinct-rs0.Distinct+rs1.Deduped-rs0.Deduped)))
	r.set("parallel.pool_busy_share", ratio(float64(rs1.PoolBusyNS-rs0.PoolBusyNS), float64(rs1.PlaceWallNS-rs0.PlaceWallNS)*float64(r.spec.threads+1)))
	// Unlimited memory: headroom is against the plan plus the result cache
	// the server is allowed on top of it.
	r.setMemory(b1.Memory.PlannedBytes, b1.Memory.PeakBytes, b1.Memory.PlannedBytes+placedResultCache, rss)
	r.set("memacct.mem_fraction", 1)
	r.set("core.slowdown_x", 1)

	// In-process replay of phase A's requests.
	aStat := afterA.Tenants[0].Report.Telemetry.Server
	serverMSA := ratio(float64(aStat.RequestLatency.SumNS-sv0.RequestLatency.SumNS)/1e6, float64(aStat.RequestLatency.Count-sv0.RequestLatency.Count))
	return r.replayServe(in, stream, len(phaseA), served, serverMSA, median(wallsA))
}

// replayServe mirrors placed in-process: the engine, result cache and
// batcher are built the way cmd/placed's fleet builds a tenant, and requests
// stream[1:1+n] go through handlePlace's call sequence from closedClients
// goroutines.
func (r *run) replayServe(in *inputs, stream []request, n int, served map[int][]byte, serverMSA, clientMSA float64) error {
	t := r.tr
	sink := telemetry.NewSink()
	cfg := r.spec.engineConfig(0)
	cfg.Telemetry = sink
	mir, eng, err := r.mirrorSetup(in, "placed.run", cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	treeStr := jplace.TreeString(mir.tr)
	cache := placement.NewResultCache(eng.Accountant(), placedResultCache, placement.ReferenceKey(treeStr, r.spec.modelSpec()), sink.DedupGroup())
	batcher := placement.NewBatcher(eng, placement.BatcherConfig{MaxBatch: placedMaxBatch, MaxLatency: placedMaxLatency, Telemetry: sink.ServerGroup()})
	width := mir.part.Comp.OriginalWidth()

	// handle is handlePlace without HTTP and admission: admission only
	// reserves bytes, which never fails under unlimited memory.
	handle := func(idx int) ([]byte, []jplace.Placements, error) {
		root := t.begin("placed.request", mir.root)
		defer t.end(root)
		var failure error
		span := func(name string, f func() error) {
			if failure != nil {
				return
			}
			id := t.begin(name, root)
			failure = f()
			t.end(id)
		}
		var (
			seqs    []seq.Sequence
			queries []placement.Query
			missIdx []int
			placed  []jplace.Placements
			out     bytes.Buffer
		)
		span("seq.ReadFasta", func() (e error) {
			seqs, e = seq.ReadFasta(bytes.NewReader(stream[idx].body))
			return e
		})
		span("placement.EncodeQueries", func() (e error) {
			queries, e = placement.EncodeQueries(r.spec.alphabet(), seqs, width)
			return e
		})
		results := make([]jplace.Placements, len(queries))
		digests := make([]seq.Digest, len(queries))
		span("placement.ResultCache.Get", func() error {
			for i, q := range queries {
				digests[i] = seq.DigestCodes(q.Codes)
				if ps, ok := cache.Get(digests[i]); ok {
					results[i] = jplace.Placements{Name: q.Name, Placements: ps}
				} else {
					missIdx = append(missIdx, i)
				}
			}
			return nil
		})
		span("placement.Batcher.Submit", func() (e error) {
			misses := make([]placement.Query, len(missIdx))
			for mi, i := range missIdx {
				misses[mi] = queries[i]
			}
			placed, e = batcher.Submit(context.Background(), misses)
			return e
		})
		span("placement.ResultCache.Put", func() error {
			for mi, i := range missIdx {
				results[i] = placed[mi]
				cache.Put(digests[i], placed[mi].Placements)
			}
			return nil
		})
		span("jplace.Write", func() error {
			return jplace.Write(&out, &jplace.Document{Tree: treeStr, Queries: results, Invocation: "placed /v1/place"})
		})
		return out.Bytes(), results, failure
	}

	// The warm-up request first, as every server start sends it.
	if _, _, err := handle(0); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var next atomic.Int64
	next.Store(1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var replayErr error
	var outBytes int64
	answers := map[int][]jplace.Placements{}
	for cl := 0; cl < closedClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx > n {
					return
				}
				body, results, err := handle(idx)
				mu.Lock()
				if err != nil && replayErr == nil {
					replayErr = err
				}
				outBytes += int64(len(body))
				answers[idx] = results
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	batcher.Close()
	cache.Purge()
	t.end(mir.root)
	if replayErr != nil {
		return fmt.Errorf("replay: %w", replayErr)
	}
	if err := eng.Close(); err != nil {
		r.fail("replay engine Close audit: %v", err)
	}
	for idx, results := range answers {
		if want, ok := served[idx]; ok && !bytes.Equal(want, canonical(results)) {
			r.fail("in-process replay of request %d placed differently from the server", idx)
		}
	}

	// Spans → layer metrics. Request spans hang off the run's root span;
	// the per-call spans hang off their request.
	reqTotal, nReq := t.total("placed.request", mir.root)
	calls := t.totalsUnder("placed.request")
	submit, encode := calls["placement.Batcher.Submit"], calls["jplace.Write"]
	decode := calls["seq.ReadFasta"] + calls["placement.EncodeQueries"]
	var bodyBytes int64
	for idx := range answers {
		bodyBytes += int64(len(stream[idx].body))
	}
	replayMS := ratio(float64(reqTotal)/1e6, float64(nReq))
	r.set("placement.batch_submit_ms", ratio(float64(submit)/1e6, float64(nReq)))
	r.set("tree.parse_ms", r.spanMS(mir, "tree.ParseNewick"))
	r.set("seq.compress_ms", r.spanMS(mir, "seq.Compress"))
	r.set("phylo.partition_build_ms", r.spanMS(mir, "phylo.NewPartition"))
	r.set("placement.setup_ms", float64(mir.setup)/1e6)
	r.set("epang.process_overhead_ms", clientMSA-replayMS)
	r.set("telemetry.trace_overhead_pct", 100*ratio(replayMS-serverMSA, serverMSA))
	// The replay's own wall, outside request spans and set-up steps.
	r.set("placement.unattributed_pct", 100*ratio(float64(t.selfTime(mir.root)), float64(time.Since(mir.start))))

	// Layer probes on the serving reference; the document they encode is
	// every distinct query the replay answered.
	mir.doc = &jplace.Document{Tree: treeStr}
	for idx := 0; idx <= n; idx++ {
		mir.doc.Queries = append(mir.doc.Queries, answers[idx]...)
	}
	mir.outBytes = outBytes / int64(max(len(answers), 1))
	if err := r.probeLayers(in, mir); err != nil {
		return err
	}
	// On this workload decode and encode run once per request, on
	// request-sized bodies: the span totals replace the bulk probes.
	r.set("seq.decode_mb_s", ratio(float64(bodyBytes)/1e6, decode.Seconds()))
	r.set("jplace.encode_mb_s", ratio(float64(outBytes)/1e6, encode.Seconds()))
	r.set("jplace.encode_ns_per_query", ratio(float64(encode), float64(nReq*requestQueries)))

	digest := seq.DigestCodes(mustEncode(r.spec, in, 0))
	acct := memacct.NewAccountant()
	probeCache := placement.NewResultCache(acct, placedResultCache, "probe", nil)
	probeCache.Put(digest, answers[1][0].Placements)
	r.set("placement.cache_get_ns", perOp(func() { probeCache.Get(digest) }))
	probeCache.Purge()
	r.assertBypass()
	return nil
}

// mustEncode encodes pool query q; the pool was generated by the simulator,
// so a failure is a harness bug.
func mustEncode(sp *spec, in *inputs, q int) []uint32 {
	codes, err := sp.alphabet().Encode(in.ds.Queries[q].Data)
	if err != nil {
		panic(err)
	}
	return codes
}
