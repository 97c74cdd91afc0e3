package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
)

// span is one timed hop of a request, recorded by the benchmark's own
// wrappers around the layers' public entry points. Spans of one request
// share its X-Request-ID.
type span struct {
	id    string
	kind  string // "client", "resp", "coord", "leg" or "worker"
	op    string // client operation, or the request path
	host  string // worker address for leg and worker spans
	dur   time.Duration
	bytes int64
}

// spanLog keeps spans in memory while on. A nil log records nothing.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) active() bool { return l != nil && l.on.Load() }

func (l *spanLog) record(s span) {
	if !l.active() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the recorded spans and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// dataPaths are the request paths spans are kept for; health checks and
// replication tails run beside them and are not part of any request.
var dataPaths = map[string]bool{"/snapshot": true, "/batch": true, "/append": true}

// spanHandler times a role's whole Handler().
type spanHandler struct {
	log  *spanLog
	kind string
	host string
	next http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.log.active() || !dataPaths[r.URL.Path] {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.record(span{id: r.Header.Get(server.RequestIDHeader), kind: h.kind, op: r.URL.Path, host: h.host, dur: time.Since(start)})
}

// spanTransport times an outbound request from send to the end of its
// response body and counts the body bytes.
type spanTransport struct {
	log  *spanLog
	kind string
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.log.active() || !dataPaths[req.URL.Path] {
		return t.base.RoundTrip(req)
	}
	s := span{id: req.Header.Get(server.RequestIDHeader), kind: t.kind, op: req.URL.Path, host: req.URL.Host}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.dur = time.Since(start)
		t.log.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, log: t.log, s: s, start: start}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	log   *spanLog
	s     span
	start time.Time
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.dur = time.Since(b.start)
		b.log.record(b.s)
	})
}

// worker is one replica-set member, built from the public constructors
// the dgserve binary uses.
type worker struct {
	gm      *historygraph.GraphManager
	svc     *server.Server
	wal     *replica.Log
	node    *replica.Node
	httpSrv *http.Server
	url     string
	primary bool
}

// cluster is a partitions x replicas deployment under one coordinator,
// all in this process on loopback.
type cluster struct {
	co      *shard.Coordinator
	front   *http.Server
	url     string
	workers []*worker
	dir     string
}

func launchCluster(spec workloadSpec, dir string, spans *spanLog) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	sets := make([][]string, spec.Partitions)
	for p := range sets {
		for m := 0; m < spec.Replicas; m++ {
			rcfg := replica.Config{SelfID: fmt.Sprintf("p%d-m%d", p, m)}
			if m == 0 {
				rcfg.Role = replica.RolePrimary
				rcfg.SyncFollowers = spec.SyncFollowers
			} else {
				rcfg.Role = replica.RoleFollower
				rcfg.PrimaryURL = sets[p][0]
			}
			w, err := startWorker(spec, filepath.Join(dir, fmt.Sprintf("p%d-m%d.wal", p, m)), rcfg, spans)
			if err != nil {
				c.close()
				return nil, err
			}
			c.workers = append(c.workers, w)
			sets[p] = append(sets[p], w.url)
		}
	}
	scfg := shard.Config{Wire: spec.LegWire, CacheSize: spec.MergedCache, HealthInterval: time.Duration(spec.HealthIntervalMS) * time.Millisecond}
	if spans != nil {
		// The coordinator's own default transport, wrapped.
		total := spec.Partitions * spec.Replicas
		scfg.HTTPClient = &http.Client{Transport: &spanTransport{log: spans, kind: "leg",
			base: &http.Transport{MaxIdleConns: 4 * total, MaxIdleConnsPerHost: 4}}}
	}
	co, err := shard.NewReplicated(sets, scfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.co = co
	var h http.Handler = co.Handler()
	if spans != nil {
		h = spanHandler{log: spans, kind: "coord", next: h}
	}
	c.front, c.url, err = serve(h)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func startWorker(spec workloadSpec, walPath string, rcfg replica.Config, spans *spanLog) (*worker, error) {
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: spec.LeafSize, Arity: spec.Arity})
	if err != nil {
		return nil, err
	}
	w := &worker{gm: gm, primary: rcfg.Role == replica.RolePrimary}
	w.svc = server.New(gm, server.Config{CacheSize: spec.ViewCache, EncodedCacheSize: spec.EncodedCache})
	if w.wal, err = replica.OpenLog(walPath); err != nil {
		w.close()
		return nil, err
	}
	if w.node, err = replica.NewNode(w.svc, w.wal, rcfg); err != nil {
		w.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	w.url = "http://" + ln.Addr().String()
	var h http.Handler = w.node.Handler()
	if spans != nil {
		h = spanHandler{log: spans, kind: "worker", host: ln.Addr().String(), next: h}
	}
	w.httpSrv = &http.Server{Handler: h}
	go w.httpSrv.Serve(ln)
	return w, nil
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func (w *worker) close() {
	if w.httpSrv != nil {
		w.httpSrv.Close()
	}
	if w.node != nil {
		w.node.Close()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	if w.wal != nil {
		w.wal.Close()
	}
	w.gm.Close()
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.co != nil {
		c.co.Close()
	}
	for _, w := range c.workers {
		w.close()
	}
	os.RemoveAll(c.dir)
}

// preload appends the prefix through the coordinator in large batches.
func (c *cluster) preload(events graph.EventList, batch int) error {
	cl := server.NewClient(c.url)
	for off := 0; off < len(events); off += batch {
		b := events[off:min(off+batch, len(events))]
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res, err := cl.AppendCtx(ctx, b)
		cancel()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if len(res.Partial) > 0 || res.Appended != len(b) {
			return fmt.Errorf("preload: appended %d of %d, partial %+v", res.Appended, len(b), res.Partial)
		}
	}
	return nil
}

// urls lists the coordinator followed by every worker.
func (c *cluster) urls() []string {
	out := []string{c.url}
	for _, w := range c.workers {
		out = append(out, w.url)
	}
	return out
}
