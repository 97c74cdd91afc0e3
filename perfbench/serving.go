package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/server"
)

// benchClient is the workload's one HTTP client to the coordinator. It
// tags every call with its own request ID, so the traced run can join the
// client, coordinator, leg and worker spans of one request.
type benchClient struct {
	c     *server.Client
	spans *spanLog
	seq   atomic.Int64
}

func newBenchClient(url, wireName string, spans *spanLog) (*benchClient, error) {
	c := server.NewClient(url)
	if spans != nil {
		// server.NewClient's client, with the transport wrapped.
		c = server.NewClientHTTP(url, &http.Client{Timeout: 60 * time.Second,
			Transport: &spanTransport{log: spans, kind: "resp", base: http.DefaultTransport}})
	}
	if _, err := c.SetWire(wireName); err != nil {
		return nil, err
	}
	return &benchClient{c: c, spans: spans}, nil
}

// do times one call.
func (b *benchClient) do(op string, fn func(context.Context) error) (time.Duration, error) {
	id := "pb-" + strconv.FormatInt(b.seq.Add(1), 10)
	ctx, cancel := context.WithTimeout(server.WithRequestID(context.Background(), id), 30*time.Second)
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	b.spans.record(span{id: id, kind: "client", op: op, dur: d})
	return d, err
}

// readStats is what one read phase measured. single and multi are timed
// from the intended send time; service is the call alone.
type readStats struct {
	*phase
	single, multi, service, lag durations
	reads                       atomic.Int64 // measured read requests, single and multipoint
}

// lastDone is when the last measured read completed.
func (rs *readStats) lastDone() time.Time {
	rs.single.mu.Lock()
	defer rs.single.mu.Unlock()
	if len(rs.single.done) == 0 {
		return rs.end
	}
	return rs.single.done[len(rs.single.done)-1]
}

type writeStats struct {
	*phase
	lat    durations // per batch, carrying its event count
	events int
}

// clusterRun drives one cluster workload.
type clusterRun struct {
	cfg    runConfig
	spec   workloadSpec
	c      *cluster
	orc    *oracle
	cl     *benchClient
	tl     *tally
	spans  *spanLog
	tail   graph.EventList
	off    int        // tail events acknowledged so far
	lastAt graph.Time // time of the last acknowledged event
}

func runCluster(cfg runConfig) (*result, error) {
	spec := cfg.spec
	prefix := genPrefix(spec.Trace, cfg.seed)
	res := newResult()
	var spans *spanLog
	if cfg.trace {
		spans = &spanLog{}
	}
	// The run uses the first setup, whose heap is measured before the
	// further setups, which are timed and torn down.
	var c *cluster
	var setups []float64
	for i := 0; i < spec.Setups; i++ {
		runtime.GC()
		start := time.Now()
		ci, err := launchCluster(spec, filepath.Join(cfg.dir, fmt.Sprintf("cluster%d", i)), spans)
		if err != nil {
			return nil, err
		}
		if err := ci.preload(prefix, spec.PreloadBatch); err != nil {
			ci.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i > 0 {
			ci.close()
			continue
		}
		c = ci
		defer c.close()
		res.e2e["heap_live_mb"] = liveHeapMB()
	}
	res.e2e["setup_s"] = median(setups)
	fmt.Fprintf(cfg.report, "setup: %dx%d cluster (%s legs), %d events preloaded, setups %v s\n",
		spec.Partitions, spec.Replicas, spec.LegWire, len(prefix), roundAll(setups))
	fmt.Fprintf(cfg.report, "caches: view %d and encoded %d per worker, merged %d at the coordinator\n",
		spec.ViewCache, spec.EncodedCache, spec.MergedCache)

	writeSecs := cfg.seconds + warmup.Seconds()
	tail := genTail(prefix, spec.Trace, cfg.seed, int(float64(spec.Trace.TailEventsPerSecond)*writeSecs))
	orc := newOracle(prefix, tail)
	orc.last = prefix[len(prefix)-1].At // reads stay inside the preload
	cl, err := newBenchClient(c.url, spec.ClientWire, spans)
	if err != nil {
		return nil, err
	}
	d := &clusterRun{cfg: cfg, spec: spec, c: c, orc: orc, cl: cl, tl: res.tally, spans: spans, tail: tail}
	if err := d.mixed(res); err != nil {
		return nil, err
	}
	d.checkAfterIngest()
	bytes, err := d.indexBytes()
	if err != nil {
		return nil, err
	}
	res.e2e["index_bytes_per_event"] = ratio(float64(bytes), float64(len(prefix)+d.off))
	if cfg.trace {
		for _, name := range []string{"kvstore.gets_per_read", "kvstore.bytes_per_read", "kvstore.get_us_per_read",
			"deltagraph.plan_us", "deltagraph.plan_cost", "deltagraph.cost_per_kb_fetched",
			"deltagraph.exec_self_us", "deltagraph.multipoint_self_us", "graphpool.release_us", "graphpool.clean_us"} {
			res.layers[name] = 0
			res.notes[name] = "dropped: inside historygraph.Open, which takes no Store and runs its own Cleaner; see server.retrievals_per_req"
		}
	}
	return res, nil
}

// mixed is ingest-mixed: one closed-loop writer beside one open-loop
// reader.
func (d *clusterRun) mixed(res *result) error {
	both := func(warm, dur time.Duration, seed int64) (*readStats, *writeStats) {
		var rs *readStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs = d.openReads(warm, dur, seed)
		}()
		ws := d.write(warm, dur)
		wg.Wait()
		return rs, ws
	}
	dur := secs(d.cfg.seconds)
	if !d.cfg.trace {
		rs, ws := both(warmup, dur, d.cfg.seed)
		d.readE2E(res, rs)
		d.writeE2E(res, ws)
		fmt.Fprintf(d.cfg.report, "open-loop reader: %.0f rps target, send lag p50 %.2f ms, p99 %.2f ms\n",
			d.spec.ReaderRPS, rs.lag.quantileMS(0.5), rs.lag.quantileMS(0.99))
		return nil
	}
	plainR, plainW := both(warmup, dur/2, d.cfg.seed)
	var tracedR *readStats
	var tracedW *writeStats
	ph, err := d.traced(func() { tracedR, tracedW = both(0, dur/2, d.cfg.seed) })
	if err != nil {
		return err
	}
	d.readLayers(res, ph, plainR, tracedR)
	d.writeLayers(res, ph, plainW, tracedW)
	runtimeLayers(res, ph.rt0, ph.rt1, tracedR.reads.Load()+int64(tracedW.lat.len()))
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedPhase is what a traced phase collected besides its own stats.
type tracedPhase struct {
	spans    []span
	scrapes  scrapeDelta
	rt0, rt1 runtimeSample
	// Worker pools after the phase, for graphpool.bytes_per_view.
	poolBytes, poolViews int64
}

// traced runs fn with spans on, scraping every role's /metrics around it.
func (d *clusterRun) traced(fn func()) (*tracedPhase, error) {
	ph := &tracedPhase{}
	var err error
	if ph.scrapes.before, err = scrapeAll(d.c.urls()); err != nil {
		return nil, err
	}
	ph.rt0 = readRuntime()
	d.spans.on.Store(true)
	fn()
	d.spans.on.Store(false)
	ph.rt1 = readRuntime()
	for _, w := range d.c.workers {
		ph.poolBytes += w.gm.Pool().ApproxBytes()
		ph.poolViews += int64(w.gm.Pool().Stats().ActiveGraphs)
	}
	if ph.scrapes.after, err = scrapeAll(d.c.urls()); err != nil {
		return nil, err
	}
	ph.spans = d.spans.take()
	return ph, nil
}

func (d *clusterRun) readE2E(res *result, rs *readStats) {
	// The open loop's achieved rate.
	res.e2e["read_ops_per_s"] = float64(rs.single.len()) / rs.lastDone().Sub(rs.start).Seconds()
	res.e2e["read_p50_ms"] = rs.single.calmQuantileMS(rs.phase, 0.50)
	res.e2e["read_p99_ms"] = rs.single.calmQuantileMS(rs.phase, 0.99)
	res.e2e["multipoint_p50_ms"] = rs.multi.calmQuantileMS(rs.phase, 0.50)
	out, of := rs.stolenWindows()
	fmt.Fprintf(d.cfg.report, "reads: %d single, %d multipoint in %v after a %v warm-up; %d of %d windows left out for CPU steal\n",
		rs.single.len(), rs.multi.len(), rs.end.Sub(rs.start), warmup, out, of)
	fmt.Fprintf(d.cfg.report, "  reads/s by window:%s\n", rs.single.windowRates(rs.phase))
}

func (d *clusterRun) writeE2E(res *result, ws *writeStats) {
	res.e2e["ingest_events_per_s"] = ws.lat.calmRate(ws.phase)
	res.e2e["append_p50_ms"] = ws.lat.calmQuantileMS(ws.phase, 0.50)
	res.e2e["append_p99_ms"] = ws.lat.calmQuantileMS(ws.phase, 0.99)
	out, of := ws.stolenWindows()
	fmt.Fprintf(d.cfg.report, "ingest: %d events in %d batches in %v after a %v warm-up (tail %d events); %d of %d windows left out for CPU steal\n",
		ws.events, ws.lat.len(), ws.end.Sub(ws.start), warmup, len(d.tail), out, of)
	fmt.Fprintf(d.cfg.report, "  events/s by window:%s\n", ws.lat.windowRates(ws.phase))
}

// openReads sends at spec.ReaderRPS from one stream for warm plus dur,
// timing each request from its intended send time; every
// MultipointEvery-th is a batch.
func (d *clusterRun) openReads(warm, dur time.Duration, seed int64) *readStats {
	rs := &readStats{phase: newPhase(warm, dur)}
	rng := rand.New(rand.NewSource(seed*131 + 7))
	singleTimes, multiTimes := d.orc.timepoints(rng), d.orc.timepoints(rng)
	interval := time.Duration(float64(time.Second) / d.spec.ReaderRPS)
	start := rs.start.Add(-warm)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(rs.end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		measured := due.After(rs.start)
		if measured {
			rs.lag.add(time.Since(due))
		}
		// A read's latency runs from its due time to the end of the
		// call; the answer is checked after it.
		if (k+1)%d.spec.MultipointEvery == 0 {
			ts := make([]graph.Time, d.spec.MultipointPoints)
			for j := range ts {
				ts[j] = multiTimes.next()
			}
			sent := time.Now()
			if dt, ok := d.batch(ts); ok && measured {
				rs.multi.add(sent.Sub(due) + dt)
				rs.reads.Add(1)
			}
		} else {
			t := singleTimes.next()
			sent := time.Now()
			if dt, ok := d.snapshot(t); ok && measured {
				rs.single.add(sent.Sub(due) + dt)
				rs.service.add(dt)
				rs.reads.Add(1)
			}
		}
	}
	rs.finish(false)
	return rs
}

// snapshot reads the full snapshot at t and checks it.
func (d *clusterRun) snapshot(t graph.Time) (time.Duration, bool) {
	var s *server.SnapshotJSON
	dt, err := d.cl.do("snapshot", func(ctx context.Context) (err error) {
		s, err = d.cl.c.SnapshotCtx(ctx, t, "", true)
		return err
	})
	if err == nil {
		err = checkSnapshot(s, t, d.orc.at(t), true)
	}
	return dt, d.tl.check(err)
}

func (d *clusterRun) batch(ts []graph.Time) (time.Duration, bool) {
	var out []server.SnapshotJSON
	dt, err := d.cl.do("batch", func(ctx context.Context) (err error) {
		out, err = d.cl.c.SnapshotsCtx(ctx, ts, "", false)
		return err
	})
	if err == nil && len(out) != len(ts) {
		err = fmt.Errorf("batch of %d timepoints answered %d", len(ts), len(out))
	}
	for i := 0; err == nil && i < len(out); i++ {
		err = checkSnapshot(&out[i], ts[i], d.orc.at(ts[i]), false)
	}
	return dt, d.tl.check(err)
}

// checkSnapshot compares a snapshot answer with the reference: counts
// always, and with full elements their lists and ID sums.
func checkSnapshot(s *server.SnapshotJSON, t graph.Time, want fingerprint, full bool) error {
	if len(s.Partial) > 0 {
		return fmt.Errorf("snapshot t=%d: partial %+v", t, s.Partial)
	}
	got := fingerprint{Nodes: s.NumNodes, Edges: s.NumEdges, NodeSum: want.NodeSum, EdgeSum: want.EdgeSum}
	if full {
		if len(s.Nodes) != s.NumNodes || len(s.Edges) != s.NumEdges {
			return fmt.Errorf("snapshot t=%d: %d nodes and %d edges listed, counts say %d and %d",
				t, len(s.Nodes), len(s.Edges), s.NumNodes, s.NumEdges)
		}
		got.NodeSum, got.EdgeSum = 0, 0
		for _, n := range s.Nodes {
			got.NodeSum += n.ID
		}
		for _, e := range s.Edges {
			got.EdgeSum += e.ID
		}
	}
	return checkFingerprint("snapshot", t, got, want)
}

// write appends the next tail batches through the coordinator for warm
// plus dur, stopping at the first failed append: the cluster's state is
// then unknown, and the run fails.
func (d *clusterRun) write(warm, dur time.Duration) *writeStats {
	ws := &writeStats{phase: newPhase(warm, dur)}
	for d.off < len(d.tail) && time.Now().Before(ws.end) {
		measured := ws.measuring()
		b := d.tail[d.off:min(d.off+d.spec.BatchEvents, len(d.tail))]
		var res *server.AppendResult
		dt, err := d.cl.do("append", func(ctx context.Context) (err error) {
			res, err = d.cl.c.AppendCtx(ctx, b)
			return err
		})
		if err == nil && (len(res.Partial) > 0 || res.Appended != len(b)) {
			err = fmt.Errorf("append: %d of %d acknowledged, partial %+v", res.Appended, len(b), res.Partial)
		}
		if !d.tl.check(err) {
			break
		}
		if measured {
			ws.lat.addN(dt, len(b))
			ws.events += len(b)
		}
		d.off += len(b)
		d.lastAt = b[len(b)-1].At
	}
	ws.finish(d.off == len(d.tail))
	return ws
}

// checkAfterIngest reads the full snapshot at the last acknowledged
// event and checks it against the reference replay.
func (d *clusterRun) checkAfterIngest() {
	if d.off == 0 {
		return
	}
	d.snapshot(d.lastAt)
}

// indexBytes sums the index payload (delta plus eventlist bytes) the
// partition primaries report in /stats.
func (d *clusterRun) indexBytes() (int64, error) {
	var total int64
	for _, w := range d.c.workers {
		if !w.primary {
			continue
		}
		st, err := server.NewClient(w.url).Stats()
		if err != nil {
			return 0, fmt.Errorf("%s/stats: %w", w.url, err)
		}
		total += st.Index.EventlistBytes
		for _, b := range st.Index.DeltaBytesByLevel {
			total += b
		}
	}
	return total, nil
}

// hops is the blocking-path decomposition of one class of requests,
// joined from their spans by request ID.
type hops struct {
	n                                            int
	client, clientSelf, shardSelf, legSelf, work time.Duration
	legs                                         int
	legDur, workAll                              time.Duration
	workN                                        int
	legBytes, respBytes                          int64
}

func (h hops) mean(d time.Duration) float64 { return ratio(us(d), float64(h.n)) }

func joinSpans(spans []span, ops ...string) hops {
	want := map[string]bool{}
	for _, o := range ops {
		want[o] = true
	}
	type req struct {
		client, coord time.Duration
		legs          []span
		workers       map[string]time.Duration
		resp          int64
		ok            bool
	}
	byID := map[string]*req{}
	get := func(id string) *req {
		r := byID[id]
		if r == nil {
			r = &req{workers: map[string]time.Duration{}}
			byID[id] = r
		}
		return r
	}
	for _, s := range spans {
		r := get(s.id)
		switch s.kind {
		case "client":
			r.client, r.ok = s.dur, want[s.op]
		case "coord":
			r.coord = s.dur
		case "leg":
			r.legs = append(r.legs, s)
		case "worker":
			r.workers[s.host] = s.dur
		case "resp":
			r.resp += s.bytes
		}
	}
	var h hops
	ids := make([]string, 0, len(byID))
	for id, r := range byID {
		if r.ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := byID[id]
		h.n++
		h.client += r.client
		h.clientSelf += r.client - r.coord
		h.respBytes += r.resp
		var longest span
		for _, l := range r.legs {
			h.legs++
			h.legDur += l.dur
			h.legBytes += l.bytes
			if l.dur > longest.dur {
				longest = l
			}
		}
		for _, w := range r.workers {
			h.workAll += w
			h.workN++
		}
		h.shardSelf += r.coord - longest.dur
		if longest.dur > 0 {
			h.work += r.workers[longest.host]
			h.legSelf += longest.dur - r.workers[longest.host]
		}
	}
	return h
}

// primaries and all are role indices into cluster.urls() (0 is the
// coordinator).
func (d *clusterRun) roleIdx(primary bool) []int {
	var idx []int
	for i, w := range d.c.workers {
		if !primary || w.primary {
			idx = append(idx, i+1)
		}
	}
	return idx
}

func (d *clusterRun) readLayers(res *result, ph *tracedPhase, plain, traced *readStats) {
	single := joinSpans(ph.spans, "snapshot")
	all := joinSpans(ph.spans, "snapshot", "batch")
	workers := d.roleIdx(false)
	reads := float64(all.n)
	res.layers["server.worker_us"] = ratio(us(all.workAll), float64(all.workN))
	res.layers["server.view_hit_ratio"] = ph.scrapes.hitRatio(workers, "view")
	res.layers["server.encoded_hit_ratio"] = ph.scrapes.hitRatio(workers, "encoded")
	res.layers["server.retrievals_per_req"] = ratio(ph.scrapes.delta(workers, "dg_retrievals_total"), reads)
	res.layers["server.encodes_per_req"] = ratio(ph.scrapes.delta(workers, "dg_encodes_total"), reads)
	res.layers["shard.self_us"] = single.mean(single.shardSelf)
	res.layers["shard.leg_us"] = ratio(us(all.legDur), float64(all.legs))
	res.layers["shard.legs_per_req"] = ratio(float64(all.legs), reads)
	res.layers["shard.merged_hit_ratio"] = ph.scrapes.hitRatio([]int{0}, "merged")
	res.layers["wire.resp_bytes"] = ratio(float64(all.respBytes), reads)
	res.layers["wire.leg_bytes"] = ratio(float64(all.legBytes), reads)
	res.layers["http.client_self_us"] = single.mean(single.clientSelf)
	res.layers["graphpool.bytes_per_view"] = ratio(float64(ph.poolBytes), float64(ph.poolViews))

	b := budget{title: d.cfg.name + " single-point read service time", unit: "us per read",
		e2e: plain.service.meanUS(), traced: traced.service.meanUS()}
	b.add("http.client_self", single.mean(single.clientSelf), "span: client call minus coordinator Handler() span (client codec, loopback HTTP)")
	b.add("shard.self", single.mean(single.shardSelf), "span: coordinator Handler() minus its longest leg (routing, merge, merged cache)")
	b.add("http.leg_self", single.mean(single.legSelf), "span: longest leg (shard.Config.HTTPClient) minus its worker span")
	b.add("server.worker", single.mean(single.work), "span: worker Node.Handler() of the longest leg (caches, graphpool view, encode)")
	b.print(d.cfg.report)
	fmt.Fprintf(d.cfg.report, "  counters: workers' dg_cache_{hits,misses}_total{cache=view,encoded}, dg_retrievals_total, dg_encodes_total; coordinator dg_cache_*{cache=merged}; %d requests joined by X-Request-ID\n", all.n)
}

func (d *clusterRun) writeLayers(res *result, ph *tracedPhase, plain, traced *writeStats) {
	h := joinSpans(ph.spans, "append")
	prim, all := d.roleIdx(true), d.roleIdx(false)
	stage := func(s string) float64 {
		return ph.scrapes.meanUS(prim, "dg_append_stage_duration_seconds", `stage="`+s+`"`)
	}
	for _, s := range []string{"validate", "log", "apply", "ack"} {
		res.layers["replica."+s+"_us"] = stage(s)
	}
	res.layers["replica.apply_p99_us"] = 1e6 * ph.scrapes.quantile(0.99, prim, "dg_append_stage_duration_seconds", `stage="apply"`)
	res.layers["replica.fsync_us"] = ph.scrapes.meanUS(all, "dg_wal_fsync_duration_seconds")
	res.layers["replica.commit_batch_records"] = ratio(ph.scrapes.delta(all, "dg_wal_commit_batch_records_sum"),
		ph.scrapes.delta(all, "dg_wal_commit_batch_records_count"))
	res.layers["replica.wal_bytes_per_event"] = ratio(ph.scrapes.delta(all, "dg_wal_size_bytes"), float64(traced.events))

	b := budget{title: d.cfg.name + " append batch through the coordinator", unit: "us per batch",
		e2e: plain.lat.meanUS(), traced: traced.lat.meanUS()}
	b.add("http.client_self", h.mean(h.clientSelf), "span: client call minus coordinator Handler() span")
	b.add("shard.self", h.mean(h.shardSelf), "span: coordinator Handler() minus its longest leg (routing, split)")
	b.add("http.leg_self", h.mean(h.legSelf), "span: longest leg minus its worker span")
	var stages float64
	for _, s := range []string{"validate", "log", "apply", "ack"} {
		stages += res.layers["replica."+s+"_us"]
		b.add("replica."+s, res.layers["replica."+s+"_us"], "/metrics dg_append_stage_duration_seconds{stage="+s+"}, primaries")
	}
	b.add("server.worker_other", h.mean(h.work)-stages, "span: worker Node.Handler() of the longest leg minus the four stages (decode, admission)")
	b.print(d.cfg.report)
	fmt.Fprintf(d.cfg.report, "  counters: dg_wal_fsync_duration_seconds, dg_wal_commit_batch_records, dg_wal_size_bytes (all members); stage means are over both primaries' sub-batches\n")
}
