package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

var (
	structureOnly = graph.MustParseAttrOptions("")
	allAttrs      = graph.MustParseAttrOptions("+node:all+edge:all")
)

// timedStore is the traced run's wrapper around the kvstore.Store handed
// to deltagraph.Options.Store. While on, it charges each Get to the
// reader goroutine that issued it, so a read's kvstore time can be
// subtracted from that read's Retrieve span even with two readers
// inside the index at once (a single-partition index fetches on the
// caller's goroutine).
type timedStore struct {
	kvstore.Store
	on   atomic.Bool
	accs sync.Map // goroutine id -> *getAcc
}

// getAcc is one reader's running kvstore totals; only its reader's
// goroutine writes it.
type getAcc struct {
	gets, bytes int64
	dur         time.Duration
}

func (s *timedStore) Get(key []byte) ([]byte, error) {
	if !s.on.Load() {
		return s.Store.Get(key)
	}
	start := time.Now()
	v, err := s.Store.Get(key)
	d := time.Since(start)
	if a, ok := s.accs.Load(goid()); ok {
		acc := a.(*getAcc)
		acc.gets++
		acc.bytes += int64(len(v))
		acc.dur += d
	}
	return v, err
}

// register returns the calling goroutine's accumulator.
func (s *timedStore) register() *getAcc {
	acc := &getAcc{}
	s.accs.Store(goid(), acc)
	return acc
}

// goid parses the calling goroutine's ID from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// libIndex is one file-backed DeltaGraph with its GraphPool.
type libIndex struct {
	dg    *deltagraph.DeltaGraph
	pool  *graphpool.Pool
	file  *kvstore.FileStore
	timed *timedStore // nil in untraced runs
	path  string
}

func buildLibrary(spec workloadSpec, events graph.EventList, path string, traced bool) (*libIndex, error) {
	fs, err := kvstore.OpenFileStore(path, kvstore.FileOptions{Compress: true})
	if err != nil {
		return nil, err
	}
	lib := &libIndex{pool: graphpool.New(), file: fs, path: path}
	var store kvstore.Store = fs
	if traced {
		lib.timed = &timedStore{Store: fs}
		store = lib.timed
	}
	lib.dg, err = deltagraph.Build(events, deltagraph.Options{
		LeafSize: spec.LeafSize, Arity: spec.Arity, Store: store, Pool: lib.pool,
	})
	if err != nil {
		fs.Close()
		os.Remove(path)
		return nil, fmt.Errorf("deltagraph.Build: %w", err)
	}
	return lib, nil
}

func (l *libIndex) close() {
	l.file.Close()
	os.Remove(l.path)
}

// libPhase is what one read phase measured.
type libPhase struct {
	*phase
	single durations // Retrieve + Release per single-point read
	multi  durations // RetrieveMany + Releases per multipoint read
	ops    int64

	// Traced phase only, summed over single-point reads.
	planDur, kvDur, retrieveDur, releaseDur time.Duration
	planCost, kvGets, kvBytes               int64
	// ... and over multipoint reads.
	multiDur, multiKVDur time.Duration
	cleanDur             durations
	bytesPerView         []float64
	mu                   sync.Mutex
}

// readPhase runs spec.Readers closed-loop readers for warm plus d,
// recording the reads that start after the warm-up.
func (l *libIndex) readPhase(spec workloadSpec, orc *oracle, tl *tally, seed int64, warm, d time.Duration, traced bool) *libPhase {
	ph := &libPhase{phase: newPhase(warm, d)}
	if traced {
		l.timed.on.Store(true)
		defer l.timed.on.Store(false)
	}
	stop := make(chan struct{})
	var cleanerDone sync.WaitGroup
	cleanerDone.Add(1)
	go func() {
		defer cleanerDone.Done()
		l.cleaner(spec, ph, stop, traced)
	}()
	var wg sync.WaitGroup
	for c := 0; c < spec.Readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.reader(spec, orc, tl, ph, rand.New(rand.NewSource(seed*131+int64(c))), traced)
		}(c)
	}
	wg.Wait()
	ph.finish(false)
	close(stop)
	cleanerDone.Wait()
	return ph
}

// cleaner runs the lazy pool cleanup on the shipped Cleaner's period,
// timed to the middle of the measurement windows so that every window
// holds one pass and none falls on a window boundary.
func (l *libIndex) cleaner(spec workloadSpec, ph *libPhase, stop <-chan struct{}, traced bool) {
	interval := time.Duration(spec.CleanIntervalMS) * time.Millisecond
	next := ph.start.Add(window / 2)
	for time.Until(next) > interval {
		next = next.Add(-interval)
	}
	for ; ; next = next.Add(interval) {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(next)):
		}
		if !traced {
			l.pool.CleanNow()
			continue
		}
		bytesNow, views := l.pool.ApproxBytes(), l.pool.Stats().ActiveGraphs
		start := time.Now()
		l.pool.CleanNow()
		ph.cleanDur.add(time.Since(start))
		ph.mu.Lock()
		ph.bytesPerView = append(ph.bytesPerView, ratio(float64(bytesNow), float64(views)))
		ph.mu.Unlock()
	}
}

func (l *libIndex) reader(spec workloadSpec, orc *oracle, tl *tally, ph *libPhase, rng *rand.Rand, traced bool) {
	var acc *getAcc
	if traced {
		acc = l.timed.register()
	}
	singleTimes, multiTimes := orc.timepoints(rng), orc.timepoints(rng)
	var planDur, kvDur, retrieveDur, releaseDur, multiDur, multiKVDur time.Duration
	var planCost, kvGets, kvBytes, ops int64
	for i := 1; time.Now().Before(ph.end); i++ {
		measured := ph.measuring()
		if measured {
			ops++
		}
		if i%spec.MultipointEvery == 0 {
			ts := make([]graph.Time, spec.MultipointPoints)
			for j := range ts {
				ts[j] = multiTimes.next()
			}
			var kv0 getAcc
			if acc != nil {
				kv0 = *acc
			}
			start := time.Now()
			ids, err := l.dg.RetrieveMany(ts, structureOnly)
			retrieved := time.Since(start)
			if !tl.check(err) {
				continue
			}
			if acc != nil && measured {
				multiDur += retrieved
				multiKVDur += acc.dur - kv0.dur
			}
			for j, id := range ids {
				l.verify(orc, tl, rng, id, ts[j], false)
			}
			rs := time.Now()
			for _, id := range ids {
				tl.check(l.pool.Release(id))
			}
			if measured {
				ph.multi.add(retrieved + time.Since(rs))
			}
			continue
		}
		t := singleTimes.next()
		full := i%spec.FullAttrEvery == 0
		opts := structureOnly
		if full {
			opts = allAttrs
		}
		var kv0 getAcc
		var planned time.Duration
		var cost int64
		if acc != nil {
			ps := time.Now()
			var err error
			cost, err = l.dg.PlanCost(t, opts)
			if !tl.check(err) {
				continue
			}
			planned = time.Since(ps)
			kv0 = *acc
		}
		start := time.Now()
		id, err := l.dg.Retrieve(t, opts)
		retrieved := time.Since(start)
		if !tl.check(err) {
			continue
		}
		if acc != nil && measured {
			planDur += planned
			planCost += cost
			retrieveDur += retrieved
			kvDur += acc.dur - kv0.dur
			kvGets += acc.gets - kv0.gets
			kvBytes += acc.bytes - kv0.bytes
		}
		l.verify(orc, tl, rng, id, t, full)
		rs := time.Now()
		err = l.pool.Release(id)
		released := time.Since(rs)
		tl.check(err)
		if measured {
			releaseDur += released
			ph.single.add(retrieved + released)
		}
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.ops += ops
	ph.planDur += planDur
	ph.kvDur += kvDur
	ph.retrieveDur += retrieveDur
	ph.releaseDur += releaseDur
	ph.multiDur += multiDur
	ph.multiKVDur += multiKVDur
	ph.planCost += planCost
	ph.kvGets += kvGets
	ph.kvBytes += kvBytes
}

// verify checks a retrieved view against the oracle: element counts, one
// random node and edge probe, and, on a full-attribute read, the probe
// node's attribute value. A structure-only read is not checked for absent
// attributes: a view overlaid on the current graph shows the current
// graph's attributes.
func (l *libIndex) verify(orc *oracle, tl *tally, rng *rand.Rand, id graphpool.GraphID, t graph.Time, full bool) {
	v, err := l.pool.View(id)
	if !tl.check(err) {
		return
	}
	want := orc.at(t)
	if v.NumNodes() != want.Nodes || v.NumEdges() != want.Edges {
		tl.fail("retrieve t=%d: %d nodes %d edges, want %d and %d", t, v.NumNodes(), v.NumEdges(), want.Nodes, want.Edges)
		return
	}
	n := graph.NodeID(1 + rng.Int63n(int64(len(orc.nodes))))
	life, alive := orc.nodeAt(n, t)
	if v.HasNode(n) != alive {
		tl.fail("retrieve t=%d: HasNode(%d) = %v, want %v", t, n, !alive, alive)
		return
	}
	if full {
		wantAttr, wantOK := life.attrs["k0"]
		wantOK = wantOK && alive
		if got, ok := v.NodeAttr(n, "k0"); ok != wantOK || (ok && got != wantAttr) {
			tl.fail("retrieve t=%d: node %d attr k0 = %q/%v, want %q/%v", t, n, got, ok, wantAttr, wantOK)
			return
		}
	}
	e := graph.EdgeID(1 + rng.Int63n(int64(len(orc.edges))))
	if want := orc.edgeAt(e, t); v.HasEdge(e) != want {
		tl.fail("retrieve t=%d: HasEdge(%d) = %v, want %v", t, e, !want, want)
		return
	}
	tl.ok()
}

// ingestPhase appends the tail through DeltaGraph.AppendAll in fixed
// batches for warmup plus d (or until the tail runs out), recording the
// batches after the warm-up, then checks the snapshot at the last
// appended time.
func (l *libIndex) ingestPhase(spec workloadSpec, tail graph.EventList, orc *oracle, tl *tally, d time.Duration) (*durations, *phase) {
	lat, ph := &durations{}, newPhase(warmup, d)
	events := 0
	for events < len(tail) && time.Now().Before(ph.end) {
		measured := ph.measuring()
		batch := tail[events:min(events+spec.BatchEvents, len(tail))]
		bs := time.Now()
		err := l.dg.AppendAll(batch)
		took := time.Since(bs)
		if !tl.check(err) {
			break
		}
		if measured {
			lat.addN(took, len(batch))
		}
		events += len(batch)
	}
	ph.finish(events == len(tail))
	if events > 0 {
		last := tail[events-1].At
		s, err := l.dg.GetSnapshot(last, structureOnly)
		if tl.check(err) {
			got := snapshotFingerprint(s)
			if err := checkFingerprint("snapshot after ingest", last, got, orc.at(last)); err != nil {
				tl.fail("%v", err)
			}
		}
	}
	return lat, ph
}

func snapshotFingerprint(s *graph.Snapshot) fingerprint {
	fp := fingerprint{Nodes: len(s.Nodes), Edges: len(s.Edges)}
	for n := range s.Nodes {
		fp.NodeSum += int64(n)
	}
	for e := range s.Edges {
		fp.EdgeSum += int64(e)
	}
	return fp
}

func runLibrary(cfg runConfig) (*result, error) {
	spec := cfg.spec
	ingestSecs := cfg.seconds * spec.IngestShare
	prefix := genPrefix(spec.Trace, cfg.seed)
	res := newResult()

	// The run uses the first setup, whose heap is measured before the
	// further setups, which are timed and torn down.
	var lib *libIndex
	var setups []float64
	for i := 0; i < spec.Setups; i++ {
		runtime.GC()
		start := time.Now()
		l, err := buildLibrary(spec, prefix, filepath.Join(cfg.dir, fmt.Sprintf("index%d.kv", i)), cfg.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i > 0 {
			l.close()
			continue
		}
		lib = l
		defer lib.close()
		res.e2e["heap_live_mb"] = liveHeapMB()
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["index_bytes_per_event"] = ratio(float64(lib.file.SizeOnDisk()), float64(len(prefix)))
	fmt.Fprintf(cfg.report, "setup: %d events, L=%d k=%d, index %d B on disk in %d keys (OS page cache resident), serving cache 0 B (none in the path), setups %v s\n",
		len(prefix), spec.LeafSize, spec.Arity, lib.file.SizeOnDisk(), lib.file.Len(), roundAll(setups))

	var tail graph.EventList
	if !cfg.trace {
		tail = genTail(prefix, spec.Trace, cfg.seed, int(float64(spec.Trace.TailEventsPerSecond)*(ingestSecs+warmup.Seconds())))
	}
	orc := newOracle(prefix, tail)
	// Reads stay inside the loaded prefix.
	orc.last = prefix[len(prefix)-1].At
	readDur := secs(cfg.seconds)

	if !cfg.trace {
		ph := lib.readPhase(spec, orc, res.tally, cfg.seed, warmup, readDur, false)
		res.e2e["read_ops_per_s"] = ph.single.calmRate(ph.phase)
		res.e2e["read_p50_ms"] = ph.single.calmQuantileMS(ph.phase, 0.50)
		res.e2e["read_p99_ms"] = ph.single.calmQuantileMS(ph.phase, 0.99)
		res.e2e["multipoint_p50_ms"] = ph.multi.calmQuantileMS(ph.phase, 0.50)
		out, of := ph.stolenWindows()
		fmt.Fprintf(cfg.report, "reads: %d single, %d multipoint in %v after a %v warm-up (closed loop, %d readers); %d of %d windows left out for CPU steal\n",
			ph.single.len(), ph.multi.len(), readDur, warmup, spec.Readers, out, of)
		fmt.Fprintf(cfg.report, "  reads/s by window:%s\n", ph.single.windowRates(ph.phase))

		lat, iph := lib.ingestPhase(spec, tail, orc, res.tally, secs(ingestSecs))
		res.e2e["ingest_events_per_s"] = lat.calmRate(iph)
		res.e2e["append_p50_ms"] = lat.calmQuantileMS(iph, 0.50)
		res.e2e["append_p99_ms"] = lat.calmQuantileMS(iph, 0.99)
		out, of = iph.stolenWindows()
		fmt.Fprintf(cfg.report, "ingest: %d batches of %d events in %v after a %v warm-up (tail %d events); %d of %d windows left out for CPU steal\n",
			lat.len(), spec.BatchEvents, iph.end.Sub(iph.start), warmup, len(tail), out, of)
		fmt.Fprintf(cfg.report, "  events/s by window:%s\n", lat.windowRates(iph))
		return res, nil
	}

	// Traced run: an untraced half gives the reference end-to-end
	// numbers, the traced half the layer figures. Both draw the same
	// timepoints, so their difference is the tracing cost alone.
	plain := lib.readPhase(spec, orc, res.tally, cfg.seed, warmup, readDur/2, false)
	rt0 := readRuntime()
	traced := lib.readPhase(spec, orc, res.tally, cfg.seed, 0, readDur/2, true)
	rt1 := readRuntime()
	libraryLayers(cfg, res, plain, traced)
	runtimeLayers(res, rt0, rt1, traced.ops)
	return res, nil
}

// libraryLayers derives the per-layer metrics and prints the layer
// budget of a single-point and a multipoint read.
func libraryLayers(cfg runConfig, res *result, plain, traced *libPhase) {
	n := float64(traced.single.len())
	m := float64(traced.multi.len())
	per := func(d time.Duration, k float64) float64 { return ratio(us(d), k) }
	res.layers["kvstore.gets_per_read"] = ratio(float64(traced.kvGets), n)
	res.layers["kvstore.bytes_per_read"] = ratio(float64(traced.kvBytes), n)
	res.layers["kvstore.get_us_per_read"] = per(traced.kvDur, n)
	res.layers["deltagraph.plan_us"] = per(traced.planDur, n)
	res.layers["deltagraph.plan_cost"] = ratio(float64(traced.planCost), n)
	res.layers["deltagraph.cost_per_kb_fetched"] = ratio(float64(traced.planCost), float64(traced.kvBytes)/1024)
	res.layers["deltagraph.exec_self_us"] = per(traced.retrieveDur-traced.kvDur-traced.planDur, n)
	res.layers["deltagraph.multipoint_self_us"] = per(traced.multiDur-traced.multiKVDur, m)
	res.layers["graphpool.release_us"] = per(traced.releaseDur, n)
	res.layers["graphpool.clean_us"] = traced.cleanDur.meanUS()
	res.layers["graphpool.bytes_per_view"] = median(traced.bytesPerView)

	b := budget{title: "retrieve-uniform single-point read (Retrieve + Release)", unit: "us per read",
		e2e: plain.single.meanUS(), traced: traced.single.meanUS()}
	b.add("kvstore.get", res.layers["kvstore.get_us_per_read"], "span: kvstore.Store.Get wrapper, charged to the issuing reader")
	b.add("deltagraph.plan", res.layers["deltagraph.plan_us"], "span: DeltaGraph.PlanCost (stands in for the plan inside Retrieve)")
	b.add("deltagraph.exec_self", res.layers["deltagraph.exec_self_us"], "span: Retrieve minus kvstore and plan (delta decode/apply, pool overlay)")
	b.add("graphpool.release", res.layers["graphpool.release_us"], "span: graphpool.Pool.Release")
	b.print(cfg.report)

	mb := budget{title: "retrieve-uniform multipoint read (RetrieveMany of 8 + Releases)", unit: "us per read",
		e2e: plain.multi.meanUS(), traced: traced.multi.meanUS()}
	mb.add("kvstore.get", per(traced.multiKVDur, m), "span: kvstore.Store.Get wrapper")
	mb.add("deltagraph.multipoint_self", res.layers["deltagraph.multipoint_self_us"], "span: RetrieveMany minus kvstore")
	mb.print(cfg.report)
	fmt.Fprintf(cfg.report, "off the read path: graphpool.clean %.1f us per pass (%d passes, span: Pool.CleanNow)\n",
		res.layers["graphpool.clean_us"], traced.cleanDur.len())
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
