package server

import (
	"time"

	"historygraph"
	"historygraph/internal/metrics"
)

// poolMetrics exposes the GraphPool on /metrics: gauges computed at
// scrape time from the serving manager's PoolStats (nothing on the
// request path), and the cleaner's pass histogram and eviction counter,
// fed by the manager's Cleaner. /stats reads its pool section back from
// the same gauges.
type poolMetrics struct {
	active, pinned, nodes, edges, columns *metrics.Gauge
	cleanDur                              *metrics.Histogram
	cleaned                               *metrics.Counter
}

// cleanBuckets span a cleaner pass from an idle tick to a long scan.
var cleanBuckets = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1}

func newPoolMetrics(reg *metrics.Registry, stats func() historygraph.PoolStats) *poolMetrics {
	graphs := reg.GaugeVec("dg_pool_graphs",
		"GraphPool graphs by state: active (registered; released ones until the next clean) and pinned.", "state")
	elems := reg.GaugeVec("dg_pool_union_elements", "Union-graph elements resident in the GraphPool by kind.", "kind")
	cols := reg.GaugeVec("dg_pool_bit_columns", "GraphPool membership bit columns allocated.")
	gauge := func(v *metrics.GaugeVec, field func(historygraph.PoolStats) int, values ...string) *metrics.Gauge {
		v.Func(func() float64 { return float64(field(stats())) }, values...)
		return v.With(values...)
	}
	return &poolMetrics{
		active:  gauge(graphs, func(st historygraph.PoolStats) int { return st.ActiveGraphs }, "active"),
		pinned:  gauge(graphs, func(st historygraph.PoolStats) int { return st.PinnedGraphs }, "pinned"),
		nodes:   gauge(elems, func(st historygraph.PoolStats) int { return st.PoolNodes }, "node"),
		edges:   gauge(elems, func(st historygraph.PoolStats) int { return st.PoolEdges }, "edge"),
		columns: gauge(cols, func(st historygraph.PoolStats) int { return st.Bits }),
		cleanDur: reg.Histogram("dg_pool_clean_duration_seconds",
			"GraphPool cleaner pass wall time (background and forced passes).", cleanBuckets),
		cleaned: reg.Counter("dg_pool_cleaned_total", "Elements evicted from the GraphPool by cleaner passes."),
	}
}

// observe records one cleaner pass.
func (m *poolMetrics) observe(d time.Duration, evicted int) {
	m.cleanDur.Observe(d.Seconds())
	m.cleaned.Add(int64(evicted))
}

// stats is the /stats pool section, read from the gauges.
func (m *poolMetrics) stats() historygraph.PoolStats {
	return historygraph.PoolStats{
		ActiveGraphs: int(m.active.Value()),
		PinnedGraphs: int(m.pinned.Value()),
		PoolNodes:    int(m.nodes.Value()),
		PoolEdges:    int(m.edges.Value()),
		Bits:         int(m.columns.Value()),
	}
}
