// The Server type and its endpoint handlers (package overview in doc.go).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// Config tunes the service.
type Config struct {
	// CacheSize is the number of hot snapshots the LRU keeps pinned in
	// the GraphPool. 0 picks the default (32); negative disables caching.
	CacheSize int
	// EncodedCacheSize is the capacity of the encoded-bytes cache: fully
	// encoded /snapshot bodies kept per (timepoint, attrs, full,
	// encoding), so a hot-timepoint hit is a single write with zero
	// encode work. 0 picks the default (64); negative disables it.
	EncodedCacheSize int
	// CSRCacheSize is the capacity of the materialized-CSR cache the
	// /analytics scan path reads (one entry per timepoint+attrs, built
	// from a pinned view, invalidated exactly like the view cache).
	// 0 picks the default (16); negative disables it.
	CSRCacheSize int
	// StreamRun is how many elements one chunked-stream frame carries on
	// the streaming /snapshot path; peak response-build memory is
	// proportional to it. 0 picks wire.DefaultRunSize.
	StreamRun int
	// Metrics is the registry the server registers its collectors on;
	// nil creates a private one. The replication node shares the
	// server's registry so one GET /metrics covers both layers.
	Metrics *metrics.Registry
	// SlowQueryThreshold, when positive, logs one line for every
	// request slower than it (method, endpoint, query, handler
	// annotations, status, duration, request ID). Zero disables the
	// log and its per-request trace allocation.
	SlowQueryThreshold time.Duration
}

// DefaultCacheSize is the hot-snapshot LRU capacity when Config.CacheSize
// is zero.
const DefaultCacheSize = 32

// DefaultEncodedCacheSize is the encoded-bytes cache capacity when
// Config.EncodedCacheSize is zero.
const DefaultEncodedCacheSize = 64

// Server serves snapshot queries over an embedded GraphManager.
type Server struct {
	// gm is swappable (ReplaceManager) so an automated replica re-seed
	// can rebuild the store underneath a running server; handlers load
	// it once per request and hold that manager for the request's life.
	gm      atomic.Pointer[historygraph.GraphManager]
	cache   *snapCache     // nil when caching is disabled
	enc     *encCache      // encoded-bytes cache; nil when disabled
	an      analyticsState // analytics plane: CSR cache + PageRank jobs
	flights FlightGroup
	mux     *http.ServeMux
	runSize int // elements per chunked-stream frame

	// slots is the installed slot-ownership state (nil = own every
	// slot); see slots.go for the resharding protocol it implements.
	slots      atomic.Pointer[slotOwnership]
	slotEpoch  *metrics.Gauge
	slotsOwned *metrics.Gauge

	// Every counter below lives in the metrics registry; /stats reads
	// the same collectors the /metrics exposition renders, so the two
	// surfaces cannot drift.
	reg        *metrics.Registry
	ins        *Instrumentation
	retrievals *metrics.Counter // underlying GetHistGraph executions
	encodes    *metrics.Counter // snapshot-body encode executions (encoded-cache hits do none)
	pool       *poolMetrics
}

// serverEndpoints is the endpoint-label whitelist for request metrics;
// it includes the replication endpoints a replica node layers on top so
// a node's mux shares this server's instrumentation.
var serverEndpoints = []string{
	"/snapshot", "/neighbors", "/batch", "/interval", "/expr", "/append",
	"/stats", "/healthz", "/readyz", "/metrics",
	"/replicate", "/replstatus", "/role",
	"/admin/slots", "/admin/migrate", "/admin/reseed",
	"/analytics/degree", "/analytics/components", "/analytics/evolution",
	"/analytics/pagerank", "/analytics/prepare", "/analytics/prstart",
	"/analytics/prstep",
}

// New wraps an open GraphManager in a query service. The caller keeps
// ownership of the GraphManager (Close it after the HTTP server stops);
// Server.Close only drops the cache's pinned views.
func New(gm *historygraph.GraphManager, cfg Config) *Server {
	s := &Server{}
	s.gm.Store(gm)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.reg = reg
	s.retrievals = reg.Counter("dg_retrievals_total", "Underlying GetHistGraph plan executions.")
	s.encodes = reg.Counter("dg_encodes_total", "Snapshot response-body encode executions.")
	hits := reg.CounterVec("dg_cache_hits_total", "Cache hits by cache level.", "cache")
	misses := reg.CounterVec("dg_cache_misses_total", "Cache misses by cache level.", "cache")
	evictions := reg.CounterVec("dg_cache_evictions_total", "Cache evictions by cache level.", "cache")
	entries := reg.GaugeVec("dg_cache_entries", "Resident entries by cache level.", "cache")
	capacity := reg.GaugeVec("dg_cache_capacity", "Configured capacity by cache level.", "cache")
	// The flight group is the fourth cache level: a hit is a request
	// served by another caller's in-flight execution.
	s.flights.Hits = hits.With("flight")
	s.flights.Misses = misses.With("flight")
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		s.cache = newSnapCache(gm, size, cacheCounters{
			hits: hits.With("view"), misses: misses.With("view"), evictions: evictions.With("view"),
		})
		entries.Func(func() float64 { return float64(s.cache.Len()) }, "view")
		capacity.With("view").Set(float64(size))
	}
	encSize := cfg.EncodedCacheSize
	if encSize == 0 {
		encSize = DefaultEncodedCacheSize
	}
	if encSize > 0 {
		s.enc = newEncCache(encSize, cacheCounters{
			hits: hits.With("encoded"), misses: misses.With("encoded"), evictions: evictions.With("encoded"),
		})
		entries.Func(func() float64 { return float64(s.enc.Len()) }, "encoded")
		capacity.With("encoded").Set(float64(encSize))
	}
	csrSize := cfg.CSRCacheSize
	if csrSize == 0 {
		csrSize = DefaultCSRCacheSize
	}
	if csrSize > 0 {
		s.an.csr = newCSRCache(csrSize, cacheCounters{
			hits: hits.With("csr"), misses: misses.With("csr"), evictions: evictions.With("csr"),
		})
		entries.Func(func() float64 { return float64(s.an.csr.Len()) }, "csr")
		capacity.With("csr").Set(float64(csrSize))
	}
	s.an.jobs = make(map[string]*prJob)
	s.an.jobsTotal = reg.CounterVec("dg_analytics_jobs_total",
		"Analytics executions by kind and terminal status.", "kind", "status")
	s.an.durations = reg.HistogramVec("dg_analytics_duration_seconds",
		"Analytics execution wall time by kind.", nil, "kind")
	s.an.supersteps = reg.Counter("dg_analytics_supersteps_total",
		"PageRank partition supersteps executed.")
	s.slotEpoch = reg.Gauge("dg_slot_epoch",
		"Installed slot-routing epoch (0 until the coordinator pushes a table).")
	s.slotsOwned = reg.Gauge("dg_slots_owned",
		"Hash slots this worker owns (the full slot space until restricted).")
	s.slotsOwned.Set(float64(graph.NumSlots))
	s.pool = newPoolMetrics(reg, func() historygraph.PoolStats { return s.gm.Load().PoolStats() })
	gm.OnClean(s.pool.observe)
	s.runSize = cfg.StreamRun
	if s.runSize <= 0 {
		s.runSize = wire.DefaultRunSize
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /neighbors", s.handleNeighbors)
	mux.HandleFunc("GET /batch", s.handleBatch)
	mux.HandleFunc("GET /interval", s.handleInterval)
	mux.HandleFunc("POST /expr", s.handleExpr)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /analytics/degree", s.handleAnalyticsDegree)
	mux.HandleFunc("GET /analytics/components", s.handleAnalyticsComponents)
	mux.HandleFunc("GET /analytics/evolution", s.handleAnalyticsEvolution)
	mux.HandleFunc("POST /analytics/pagerank", s.handleAnalyticsPageRank)
	mux.HandleFunc("POST /analytics/prepare", s.handlePRPrepare)
	mux.HandleFunc("POST /analytics/prstart", s.handlePRStart)
	mux.HandleFunc("POST /analytics/prstep", s.handlePRStep)
	mux.HandleFunc("GET /admin/slots", s.handleSlotsGet)
	mux.HandleFunc("POST /admin/slots", s.handleSlotsPost)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// A bare worker is ready as soon as it serves; a replica node layers
	// its own /readyz (in-sync state) over this one on its outer mux.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	s.mux = mux
	s.ins = NewInstrumentation(reg, serverEndpoints, cfg.SlowQueryThreshold)
	return s
}

// Handler returns the service's HTTP handler, wrapped in the request
// instrumentation middleware.
func (s *Server) Handler() http.Handler {
	return s.ins.Wrap(s.mux)
}

// Metrics returns the server's metrics registry; the replication node
// registers its WAL and readiness collectors on it.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// InstrumentHandler wraps h in this server's request-metrics middleware.
// The replica node uses it so the replication endpoints it serves ahead
// of the server's mux are counted and traced identically.
func (s *Server) InstrumentHandler(h http.Handler) http.Handler {
	return s.ins.Wrap(h)
}

// Close evicts and releases every cached view. The underlying
// GraphManager is not closed.
func (s *Server) Close() {
	if s.cache != nil {
		s.cache.Purge()
	}
	if s.enc != nil {
		s.enc.Purge()
	}
	if s.an.csr != nil {
		s.an.csr.Purge()
	}
}

// Retrievals reports how many times the server actually executed
// GetHistGraph (tests assert coalescing against this).
func (s *Server) Retrievals() int64 { return s.retrievals.Value() }

// Encodes reports how many snapshot response-body encodes (whole-message
// or streamed) the server executed. An encoded-bytes cache hit writes the
// stored body without encoding, so tests assert hits leave this counter
// untouched.
func (s *Server) Encodes() int64 { return s.encodes.Value() }

// encode serializes one response body via codec, counting the execution.
func (s *Server) encode(codec wire.Codec, v any) ([]byte, error) {
	s.encodes.Inc()
	return codec.Encode(v)
}

// cacheKey identifies one (timepoint, attribute-spec) retrieval.
func cacheKey(t historygraph.Time, attrs string) string {
	return strconv.FormatInt(int64(t), 10) + "|" + attrs
}

// flightView is what a retrieval flight hands its own caller: the cached
// view with a reader pin already taken (release may be nil if caching the
// view failed).
type flightView struct {
	h       *historygraph.HistGraph
	release func()
}

func (s *Server) retrieve(gm *historygraph.GraphManager, t historygraph.Time, attrs string) (*historygraph.HistGraph, error) {
	s.retrievals.Inc()
	return gm.GetHistGraph(t, attrs)
}

// acquire returns a pool view of the snapshot at t with a reference held;
// release must be called once the response is built. Concurrent identical
// requests share one underlying retrieval, and popular timepoints are
// served from the hot-snapshot cache without touching the DeltaGraph.
// The manager is captured once so a concurrent ReplaceManager cannot
// split one request across two stores (the release closures hand views
// back to the manager that produced them).
func (s *Server) acquire(t historygraph.Time, attrs string) (h *historygraph.HistGraph, release func(), cached, coalesced bool, err error) {
	gm := s.gm.Load()
	if s.cache == nil {
		h, err := s.retrieve(gm, t, attrs)
		if err != nil {
			return nil, nil, false, false, err
		}
		return h, func() { gm.Release(h) }, false, false, nil
	}
	key := cacheKey(t, attrs)
	if h, rel, ok := s.cache.Acquire(key, true); ok {
		return h, rel, true, false, nil
	}
	v, shared, err := s.flights.Do(key, func() (any, error) {
		gen := s.cache.Gen()
		start := time.Now()
		h, err := s.retrieve(gm, t, attrs)
		if err != nil {
			return nil, err
		}
		// The flight keeps a reader pin for its own caller, so the
		// leader serves its handle directly — no re-lookup that could
		// race an eviction under cache churn. Plan-execution time rides
		// along as the entry's cost-aware admission weight.
		fh, rel := s.cache.InsertAcquire(key, t, h, gen, time.Since(start))
		if rel == nil {
			// Not cached (an append's invalidation pass overlapped the
			// retrieval, so the view may be stale as a cache entry —
			// though exact for this request's moment — or the cache is
			// shutting down): the leader serves its own view uncached.
			return flightView{h: h, release: func() { gm.Release(h) }}, nil
		}
		return flightView{h: fh, release: rel}, nil
	})
	if err != nil {
		return nil, nil, false, shared, err
	}
	if !shared {
		if fv := v.(flightView); fv.release != nil {
			return fv.h, fv.release, false, false, nil
		}
	}
	// Coalesced waiters (and the leader in the pathological case where
	// the insert failed) pin the cached entry themselves.
	if h, rel, ok := s.cache.Acquire(key, false); ok {
		return h, rel, false, shared, nil
	}
	// The entry was evicted between insert and pin (cache under heavy
	// churn): fall back to a one-off uncached retrieval.
	h, err = s.retrieve(gm, t, attrs)
	if err != nil {
		return nil, nil, false, shared, err
	}
	return h, func() { gm.Release(h) }, false, shared, nil
}

// encKey identifies one encoded /snapshot body in the encoded-bytes
// cache: the view key plus the response shape (full or counts-only) and
// the encoding it was serialized with.
func encKey(t historygraph.Time, attrs string, full bool, codecName string) string {
	k := cacheKey(t, attrs)
	if full {
		k += "|full|"
	} else {
		k += "|counts|"
	}
	return k + codecName
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q := r.URL.Query()
	t, err := ParseTimeParam(q.Get("t"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	attrs := q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	full := BoolParam(q.Get("full"))
	accept := r.Header.Get("Accept")
	// Streaming applies to full responses only: a counts-only answer has
	// nothing to chunk, so it falls through to the whole-message codec
	// Negotiate picks (the stream Accept value matches binary there).
	stream := full && wire.WantsStream(accept)
	codec := wire.Negotiate(accept)
	name := codec.Name()
	if stream {
		name = wire.NameBinaryStream
	}
	var ekey string
	var gen int64
	if s.enc != nil {
		ekey = encKey(t, attrs, full, name)
		if body, ct, ok := s.enc.Get(ekey); ok {
			// Encoded-bytes hit: one write, zero encode work.
			Annotate(r.Context(), "cache", "encoded-hit")
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return
		}
		// Snapshot the invalidation generation before the retrieval so a
		// body built while an append overlapped cannot register as fresh.
		gen = s.enc.Gen()
	}
	h, release, cached, coalesced, err := s.acquire(t, attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	switch {
	case cached:
		Annotate(r.Context(), "cache", "view-hit")
	case coalesced:
		Annotate(r.Context(), "cache", "coalesced")
	default:
		Annotate(r.Context(), "cache", "miss")
	}
	own := s.ownership()
	if stream {
		s.streamSnapshot(w, h, release, cached, coalesced, ekey, gen, own)
		return
	}
	depCur := h.DependsOnCurrent()
	out := ownedViewToJSON(h, full, own)
	release()
	out.Cached = cached
	out.Coalesced = coalesced
	body, err := s.encode(codec, out)
	if err != nil {
		WriteJSON(w, http.StatusOK, out)
		return
	}
	w.Header().Set("Content-Type", codec.ContentType())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	if s.enc == nil || out.Coalesced {
		// Coalesced waiters leave caching to the flight leader, like the
		// coordinator's merged-response cache.
		return
	}
	cachedBody := body
	if !out.Cached {
		// A later hit answers exactly like a hot-snapshot cache hit: the
		// Cached flag flips on, so the stored variant is re-encoded once.
		// That second encode happens once per (key, encoding) per
		// invalidation epoch — the first repeat request hits the stored
		// bytes — so it amortizes like any cache-population cost.
		variant := out
		variant.Cached = true
		if cachedBody, err = s.encode(codec, variant); err != nil {
			return
		}
	}
	s.enc.Insert(ekey, t, depCur, cachedBody, codec.ContentType(), gen)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q := r.URL.Query()
	t, err := ParseTimeParam(q.Get("t"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	nodeRaw := q.Get("node")
	node, err := strconv.ParseInt(nodeRaw, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad node %q", nodeRaw))
		return
	}
	h, release, cached, _, err := s.acquire(t, q.Get("attrs"))
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	id := historygraph.NodeID(node)
	out := NeighborsJSON{At: int64(t), Node: node, Cached: cached}
	var neigh []historygraph.NodeID
	if own := s.ownership(); own.filtering() {
		// Restricted to owned edges: a retired owner still holding a
		// moved slot's history must not double-count its edges in the
		// coordinator's degree sum.
		out.Degree, neigh = ownedNeighbors(h, id, own)
	} else {
		out.Degree, neigh = h.Degree(id), h.Neighbors(id)
	}
	release()
	out.Neighbors = make([]int64, len(neigh))
	for i, n := range neigh {
		out.Neighbors[i] = int64(n)
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	gm := s.gm.Load()
	own := s.ownership()
	q := r.URL.Query()
	var times []historygraph.Time
	for _, part := range strings.Split(q.Get("t"), ",") {
		t, err := ParseTimeParam(strings.TrimSpace(part))
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		times = append(times, t)
	}
	attrs := q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	full := BoolParam(q.Get("full"))
	out := make([]SnapshotJSON, len(times))

	if s.cache == nil {
		// Caching disabled: detached snapshots through the multipoint
		// shared-delta plan (Section 4.4), as before.
		snaps, err := gm.GetHistSnapshots(times, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		for i, snap := range snaps {
			out[i] = ownedSnapshotToJSON(snap, times[i], full, own)
		}
		WriteWire(w, r, http.StatusOK, out)
		return
	}

	// Probe the hot-snapshot cache per timepoint; the misses execute as
	// one multipoint shared-delta plan (Section 4.4) into the GraphPool
	// and register in the cache, so a repeat batch — or a later
	// singlepoint query at any of its timepoints — costs zero plan
	// executions.
	var missTimes []historygraph.Time
	missIdx := make(map[historygraph.Time][]int)
	for i, t := range times {
		if h, rel, ok := s.cache.Acquire(cacheKey(t, attrs), true); ok {
			out[i] = ownedViewToJSON(h, full, own)
			rel()
			out[i].At = int64(t)
			out[i].Cached = true
			continue
		}
		if _, seen := missIdx[t]; !seen {
			missTimes = append(missTimes, t)
		}
		missIdx[t] = append(missIdx[t], i)
	}
	switch {
	case len(missTimes) == 0:
	case len(missTimes) >= s.cache.capacity:
		// Admission guard: registering a batch as large as the whole LRU
		// would evict the entire hot set (including the batch's own
		// earlier entries) for zero reuse. Serve it detached instead.
		s.retrievals.Add(int64(len(missTimes)))
		snaps, err := gm.GetHistSnapshots(missTimes, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		for j, snap := range snaps {
			t := missTimes[j]
			for _, i := range missIdx[t] {
				out[i] = ownedSnapshotToJSON(snap, t, full, own)
			}
		}
	default:
		s.retrievals.Add(int64(len(missTimes)))
		gen := s.cache.Gen()
		start := time.Now()
		hs, err := gm.GetHistGraphs(missTimes, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		// The shared-delta plan's cost is amortized evenly across the
		// views it produced — each entry's admission weight is its share.
		perView := time.Since(start) / time.Duration(len(hs))
		for j, h := range hs {
			t := missTimes[j]
			var sj SnapshotJSON
			if fh, rel := s.cache.InsertAcquire(cacheKey(t, attrs), t, h, gen, perView); rel != nil {
				sj = ownedViewToJSON(fh, full, own)
				rel()
			} else {
				// Not cached (concurrent append invalidation, or
				// shutdown): serve this view directly and hand it
				// straight back to the pool.
				sj = ownedViewToJSON(h, full, own)
				gm.Release(h)
			}
			sj.At = int64(t)
			for _, i := range missIdx[t] {
				out[i] = sj
			}
		}
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q := r.URL.Query()
	from, err1 := ParseTimeParam(q.Get("from"))
	to, err2 := ParseTimeParam(q.Get("to"))
	if err1 != nil || err2 != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("interval wants numeric from/to"))
		return
	}
	res, err := s.gm.Load().GetHistGraphInterval(from, to, q.Get("attrs"))
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	own := s.ownership()
	sj := ownedSnapshotToJSON(res.Graph, 0, BoolParam(q.Get("full")), own)
	out := IntervalJSON{
		Start: int64(res.Start), End: int64(res.End),
		NumNodes: sj.NumNodes, NumEdges: sj.NumEdges,
		Nodes: sj.Nodes, Edges: sj.Edges,
	}
	for _, ev := range res.Transients {
		if own.filtering() && !own.owns(graph.SlotOfEvent(ev)) {
			continue
		}
		out.Transients = append(out.Transients, EventToJSON(ev))
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleExpr(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	var req ExprRequest
	if err := ReadBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad expr body: %w", err))
		return
	}
	expr, err := ParseTimeExpr(req.Expr, len(req.Times))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	tex := historygraph.TimeExpression{Expr: expr}
	for _, t := range req.Times {
		tex.Times = append(tex.Times, historygraph.Time(t))
	}
	snap, err := s.gm.Load().GetHistGraphExpr(tex, req.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	WriteWire(w, r, http.StatusOK, ownedSnapshotToJSON(snap, 0, req.Full, s.ownership()))
}

// DecodeEvents converts a wire event batch to the model form. The append
// handler and the replication node share it.
func DecodeEvents(body []EventJSON) (historygraph.EventList, error) {
	events := make(historygraph.EventList, len(body))
	for i, ej := range body {
		ev, err := EventFromJSON(ej)
		if err != nil {
			return nil, err
		}
		events[i] = ev
	}
	return events, nil
}

// ApplyEvents records a run of events against the embedded GraphManager
// and invalidates the affected hot-snapshot cache entries — the single
// append-application path, shared by the HTTP handler and the replication
// subsystem (internal/replica), whose WAL replay and follower apply loops
// must invalidate exactly like a live append. The cache is invalidated
// even when the batch failed partway: AppendAll applies events one at a
// time, so a prefix may have landed. Cached snapshots at or after the
// earliest appended timestamp — and every view that reads through the
// current graph — are stale then; earlier independent ones are untouched
// (history is append-only).
func (s *Server) ApplyEvents(events historygraph.EventList) (AppendResult, error) {
	gm := s.gm.Load()
	minAt := historygraph.Time(0)
	for i, ev := range events {
		if i == 0 || ev.At < minAt {
			minAt = ev.At
		}
	}
	applied, appendErr := gm.AppendAllCounted(events)
	invalidated := 0
	if s.cache != nil && len(events) > 0 {
		invalidated = s.cache.InvalidateFrom(minAt)
	}
	// The encoded-bytes cache shares the pinned-view invalidation rules
	// exactly (same earliest-timestamp cut, same current-dependent
	// eviction); its count is internal — AppendResult.Invalidated keeps
	// meaning evicted *views*, as it always has.
	if s.enc != nil && len(events) > 0 {
		s.enc.InvalidateFrom(minAt)
	}
	// Materialized CSRs are projections of the same views and follow the
	// identical invalidation rule.
	if s.an.csr != nil && len(events) > 0 {
		s.an.csr.InvalidateFrom(minAt)
	}
	// Appended is the exact applied count even on failure (a prefix may
	// have landed); the replication recovery paths read it to resume
	// precisely where a partial apply stopped.
	res := AppendResult{
		Appended:    applied,
		LastTime:    int64(gm.LastTime()),
		Invalidated: invalidated,
	}
	return res, appendErr
}

// Manager returns the embedded GraphManager (the replication node uses it
// to bound WAL replay).
func (s *Server) Manager() *historygraph.GraphManager { return s.gm.Load() }

// ReplaceManager swaps the embedded GraphManager for a rebuilt one (the
// automated replica re-seed) and returns the old manager. Every cache
// level is dropped: pinned views belong to the old manager's pool and are
// released through it, and the generation bumps refuse in-flight inserts
// whose retrievals predate the swap. Requests already past their gm load
// finish against the old manager, so the caller must keep it open until
// those drain (or accept their failure, as the re-seed path does after a
// divergence that already made the old store unservable).
func (s *Server) ReplaceManager(gm *historygraph.GraphManager) *historygraph.GraphManager {
	old := s.gm.Swap(gm)
	old.OnClean(nil)
	gm.OnClean(s.pool.observe)
	if s.cache != nil {
		s.cache.setManager(gm)
	}
	if s.enc != nil {
		s.enc.InvalidateFrom(0)
	}
	if s.an.csr != nil {
		s.an.csr.InvalidateFrom(0)
	}
	return old
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	if BoolParam(r.URL.Query().Get("stream")) {
		s.handleAppendStream(w, r)
		return
	}
	var body []EventJSON
	if err := ReadBody(r, &body); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad append body: %w", err))
		return
	}
	events, err := DecodeEvents(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, appendErr := s.ApplyEvents(events)
	if appendErr != nil {
		WriteError(w, http.StatusUnprocessableEntity, appendErr)
		return
	}
	WriteWire(w, r, http.StatusOK, res)
}

// handleStats re-derives the /stats JSON from the metrics registry's
// collectors — the exact values /metrics exposes — so the two surfaces
// cannot drift.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	gm := s.gm.Load()
	out := StatsJSON{
		Index: gm.IndexStats(),
		Pool:  s.pool.stats(),
		Server: ServerStatsJSON{
			Requests:   s.ins.Requests(),
			Retrievals: s.retrievals.Value(),
			Coalesced:  s.flights.Hits.Value(),
		},
	}
	if s.cache != nil {
		out.Server.CacheHits = s.cache.counters.hits.Value()
		out.Server.CacheMisses = s.cache.counters.misses.Value()
		out.Server.CacheEvictions = s.cache.counters.evictions.Value()
		out.Server.CacheSize = s.cache.Len()
		out.Server.CacheCapacity = s.cache.capacity
	}
	if s.enc != nil {
		out.Server.Encodes = s.encodes.Value()
		out.Server.EncodedHits = s.enc.counters.hits.Value()
		out.Server.EncodedMisses = s.enc.counters.misses.Value()
		out.Server.EncodedSize = s.enc.Len()
		out.Server.EncodedCapacity = s.enc.capacity
	}
	WriteJSON(w, http.StatusOK, out)
}

// ParseTimeParam parses a timepoint query parameter. Exported so the
// shard coordinator parses requests exactly like a worker.
func ParseTimeParam(s string) (historygraph.Time, error) {
	if s == "" {
		return 0, fmt.Errorf("missing timepoint parameter t")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timepoint %q", s)
	}
	return historygraph.Time(v), nil
}

// BoolParam parses a boolean query parameter ("1", "true", "yes").
func BoolParam(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteWire writes v encoded with the codec the request's Accept header
// negotiated (wire.Negotiate): JSON unless the client asked for binary.
// Types the negotiated codec cannot encode fall back to JSON, so adding a
// binary-unaware response shape never breaks a binary client — it just
// answers JSON, which the Content-Type header declares.
func WriteWire(w http.ResponseWriter, r *http.Request, code int, v any) {
	codec := wire.Negotiate(r.Header.Get("Accept"))
	data, err := codec.Encode(v)
	if err != nil {
		WriteJSON(w, code, v)
		return
	}
	w.Header().Set("Content-Type", codec.ContentType())
	w.WriteHeader(code)
	w.Write(data)
}

// ReadBody decodes a request body with the codec its Content-Type names
// (JSON unless the binary type is declared). The shard coordinator and
// replica node share it so every append path accepts both encodings.
func ReadBody(r *http.Request, v any) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return wire.ForContentType(r.Header.Get("Content-Type")).Decode(data, v)
}

// WriteError writes the wire error shape ({"error": "..."}) the Client
// decodes; the shard coordinator reuses it so error bodies stay uniform.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorJSON{Error: err.Error()})
}
