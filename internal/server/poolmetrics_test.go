package server

import (
	"bytes"
	"testing"

	"historygraph/internal/metrics"
)

// TestPoolMetrics: /metrics carries the pool gauges and the cleaner's
// series, the exposition lints, and /stats reports the same pool numbers.
func TestPoolMetrics(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{CacheSize: -1, EncodedCacheSize: -1})
	h, err := gm.GetHistGraph(gm.LastTime()/2, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.Pin(h); err != nil {
		t.Fatal(err)
	}
	h2, err := gm.GetHistGraph(gm.LastTime()/3, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.Release(h2); err != nil {
		t.Fatal(err)
	}
	evicted := gm.ForceClean()

	scrape := func() map[string]float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := svc.Metrics().Expose(&buf); err != nil {
			t.Fatal(err)
		}
		if err := metrics.Lint(buf.String()); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.Parse(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, s := range samples {
			key := s.Name
			for _, l := range []string{"state", "kind"} {
				if v, ok := s.Labels[l]; ok {
					key += "{" + v + "}"
				}
			}
			if _, isBucket := s.Labels["le"]; !isBucket {
				out[key] = s.Value
			}
		}
		return out
	}
	got := scrape()
	st := gm.PoolStats()
	for name, want := range map[string]int{
		"dg_pool_graphs{active}":               st.ActiveGraphs,
		"dg_pool_graphs{pinned}":               st.PinnedGraphs,
		"dg_pool_union_elements{node}":         st.PoolNodes,
		"dg_pool_union_elements{edge}":         st.PoolEdges,
		"dg_pool_bit_columns":                  st.Bits,
		"dg_pool_cleaned_total":                evicted,
		"dg_pool_clean_duration_seconds_count": 1,
	} {
		if v, ok := got[name]; !ok || v != float64(want) {
			t.Errorf("%s = %v (present %v), want %d", name, v, ok, want)
		}
	}
	if st.PinnedGraphs != 1 || st.ActiveGraphs < 2 {
		t.Fatalf("setup: pool stats %+v, evicted %d", st, evicted)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pool != st {
		t.Errorf("/stats pool = %+v, want %+v", stats.Pool, st)
	}
}
