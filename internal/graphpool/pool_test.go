package graphpool

import (
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// buildSnapshot makes a snapshot with nodes 1..n, a chain of edges, and a
// "name" attribute on every node.
func buildSnapshot(n int) *graph.Snapshot {
	s := graph.NewSnapshot()
	for i := 1; i <= n; i++ {
		id := graph.NodeID(i)
		s.Nodes[id] = struct{}{}
		s.NodeAttrs[id] = map[string]string{"name": "node" + string(rune('a'+i%26))}
	}
	for i := 1; i < n; i++ {
		e := graph.EdgeID(i)
		s.Edges[e] = graph.EdgeInfo{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
		s.EdgeAttrs[e] = map[string]string{"w": "1"}
	}
	return s
}

func TestOverlayAndViewRoundTrip(t *testing.T) {
	p := New()
	s := buildSnapshot(10)
	id := p.OverlaySnapshot(s, 100)
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.At() != 100 {
		t.Errorf("At = %d", v.At())
	}
	if !v.Snapshot().Equal(s) {
		t.Error("extracted snapshot differs from overlaid one")
	}
	if v.NumNodes() != 10 || v.NumEdges() != 9 {
		t.Errorf("counts: %d nodes %d edges", v.NumNodes(), v.NumEdges())
	}
}

func TestMultipleGraphsOverlaid(t *testing.T) {
	p := New()
	s1 := buildSnapshot(10)
	s2 := buildSnapshot(6) // subset of s1
	// s3: disjoint ID range
	s3 := graph.NewSnapshot()
	for i := 100; i < 105; i++ {
		s3.Nodes[graph.NodeID(i)] = struct{}{}
	}
	id1 := p.OverlaySnapshot(s1, 1)
	id2 := p.OverlaySnapshot(s2, 2)
	id3 := p.OverlaySnapshot(s3, 3)

	v1, _ := p.View(id1)
	v2, _ := p.View(id2)
	v3, _ := p.View(id3)
	if !v1.Snapshot().Equal(s1) || !v2.Snapshot().Equal(s2) || !v3.Snapshot().Equal(s3) {
		t.Fatal("co-resident graphs corrupted each other")
	}
	// The union is stored once: pool node count equals union size.
	if st := p.Stats(); st.PoolNodes != 15 {
		t.Errorf("pool nodes = %d, want 15 (10 shared + 5 disjoint)", st.PoolNodes)
	}
	if v2.HasNode(7) {
		t.Error("graph 2 should not contain node 7")
	}
	if !v1.HasNode(7) {
		t.Error("graph 1 should contain node 7")
	}
}

func TestViewTraversal(t *testing.T) {
	p := New()
	s := buildSnapshot(5)
	id := p.OverlaySnapshot(s, 1)
	v, _ := p.View(id)

	nbrs := v.Neighbors(2)
	if len(nbrs) != 2 {
		t.Errorf("Neighbors(2) = %v", nbrs)
	}
	if d := v.Degree(2); d != 2 {
		t.Errorf("Degree(2) = %d", d)
	}
	if d := v.Degree(1); d != 1 {
		t.Errorf("Degree(1) = %d", d)
	}
	if len(v.IncidentEdges(3)) != 2 {
		t.Error("IncidentEdges(3) wrong")
	}
	if got, ok := v.NodeAttr(1, "name"); !ok || got == "" {
		t.Error("NodeAttr missing")
	}
	if got, ok := v.EdgeAttr(1, "w"); !ok || got != "1" {
		t.Error("EdgeAttr missing")
	}
	if _, ok := v.NodeAttr(1, "absent"); ok {
		t.Error("absent attr reported present")
	}
	if info, ok := v.EdgeInfo(1); !ok || info.From != 1 || info.To != 2 {
		t.Error("EdgeInfo wrong")
	}
	if attrs := v.NodeAttrs(1); len(attrs) != 1 {
		t.Errorf("NodeAttrs = %v", attrs)
	}
	if attrs := v.NodeAttrs(999); attrs != nil {
		t.Error("NodeAttrs of absent node should be nil")
	}
	count := 0
	v.ForEachNode(func(graph.NodeID) bool { count++; return count < 3 })
	if count != 3 {
		t.Error("ForEachNode early stop failed")
	}
	if len(v.Nodes()) != 5 {
		t.Error("Nodes() wrong size")
	}
}

func TestCurrentGraphEvents(t *testing.T) {
	p := New()
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 1})
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 2})
	p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: 1, Node: 1, Node2: 2})
	p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", New: "v1", HasNew: true})
	cur := p.Current()
	if cur.NumNodes() != 2 || cur.NumEdges() != 1 {
		t.Fatalf("current counts: %d, %d", cur.NumNodes(), cur.NumEdges())
	}
	if got, _ := cur.NodeAttr(1, "a"); got != "v1" {
		t.Error("current attr wrong")
	}
	// Update the attribute: old value must leave the current graph.
	p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", Old: "v1", HadOld: true, New: "v2", HasNew: true})
	if got, _ := cur.NodeAttr(1, "a"); got != "v2" {
		t.Error("attr update not visible")
	}
	// Delete an edge: bit 1 keeps it resident until ClearRecent.
	p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: 1, Node: 1, Node2: 2})
	if cur.HasEdge(1) {
		t.Error("deleted edge still in current graph")
	}
	if p.Stats().PoolEdges != 1 {
		t.Error("recently deleted edge evicted too early")
	}
	p.ClearRecent()
	p.CleanNow()
	// Element had only bit 1 left; after ClearRecent+clean it may be
	// evicted once no graph holds it. (CleanNow only evicts for released
	// graphs' bits, so check membership rather than eviction.)
	if cur.HasEdge(1) {
		t.Error("edge reappeared")
	}
}

// Elements deleted from the current graph keep bit 1 and stay resident
// through cleaner passes until ClearRecent; then the next pass evicts
// them and a new element reuses the slot with no membership.
func TestRecentDeletesResidentUntilClearRecent(t *testing.T) {
	p := New()
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 1})
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 2})
	p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: 7, Node: 1, Node2: 2})
	p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: 7, Node: 1, Node2: 2})
	releaseAndClean := func() int {
		t.Helper()
		if err := p.Release(p.OverlaySnapshot(graph.NewSnapshot(), 1)); err != nil {
			t.Fatal(err)
		}
		return p.CleanNow()
	}
	if n := releaseAndClean(); n != 0 || p.Stats().PoolEdges != 1 {
		t.Fatalf("clean evicted %d elements, %d edges resident; the recent delete must stay", n, p.Stats().PoolEdges)
	}
	p.ClearRecent()
	if n := releaseAndClean(); n != 1 || p.Stats().PoolEdges != 0 {
		t.Fatalf("after ClearRecent: clean evicted %d, %d edges resident; want the edge gone", n, p.Stats().PoolEdges)
	}
	s := graph.NewSnapshot()
	s.Nodes[3] = struct{}{}
	v, _ := p.View(p.OverlaySnapshot(s, 2))
	if cur := p.Current(); cur.HasNode(3) || cur.NumEdges() != 0 || !v.HasNode(3) || v.HasEdge(7) {
		t.Fatal("reused slot carries stale membership")
	}
}

func TestDependentGraph(t *testing.T) {
	p := New()
	base := buildSnapshot(100)
	matID := p.OverlayMaterialized(base)

	// The historical graph differs from the materialized one in a few
	// elements: node 101 added, node 1 removed, attr of node 2 changed.
	target := base.Clone()
	target.Nodes[101] = struct{}{}
	delete(target.Nodes, 1)
	delete(target.NodeAttrs, 1)
	delete(target.Edges, 1) // edge 1 touches node 1
	delete(target.EdgeAttrs, 1)
	target.NodeAttrs[2]["name"] = "renamed"

	d := delta.Compute(target, base)
	histID, err := p.OverlayDependent(matID, d, 55)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(histID)
	if !v.Snapshot().Equal(target) {
		t.Fatal("dependent view differs from target snapshot")
	}
	if v.HasNode(1) || !v.HasNode(101) || !v.HasNode(50) {
		t.Error("membership via dependency wrong")
	}
	if got, _ := v.NodeAttr(2, "name"); got != "renamed" {
		t.Errorf("exception attr = %q", got)
	}
	if got, _ := v.NodeAttr(3, "name"); got == "" {
		t.Error("inherited attr missing")
	}
	// The materialized view must be unaffected.
	mv, _ := p.View(matID)
	if !mv.Snapshot().Equal(base) {
		t.Error("materialized graph corrupted by dependent overlay")
	}

	// Releasing the dependency before the dependent graph must fail.
	if err := p.Release(matID); err == nil {
		t.Error("released a materialized graph with dependents")
	}
	if err := p.Release(histID); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(matID); err != nil {
		t.Errorf("release after dependent released: %v", err)
	}
}

func TestDependentRequiresMaterializedOrCurrent(t *testing.T) {
	p := New()
	histID := p.OverlaySnapshot(buildSnapshot(3), 1)
	if _, err := p.OverlayDependent(histID, &delta.Delta{}, 2); err == nil {
		t.Error("dependency on a historical graph allowed")
	}
	if _, err := p.OverlayDependent(999, &delta.Delta{}, 2); err == nil {
		t.Error("dependency on unknown graph allowed")
	}
}

func TestDependentOnCurrent(t *testing.T) {
	p := New()
	for i := 1; i <= 10; i++ {
		p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: graph.NodeID(i)})
	}
	d := &delta.Delta{DelNodes: []graph.NodeID{10}, AddNodes: []graph.NodeID{11}}
	id, err := p.OverlayDependent(CurrentGraph, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(id)
	if v.HasNode(10) || !v.HasNode(11) || !v.HasNode(5) {
		t.Error("dependent-on-current membership wrong")
	}
	if v.NumNodes() != 10 {
		t.Errorf("NumNodes = %d, want 10", v.NumNodes())
	}
}

func TestReleaseAndCleanup(t *testing.T) {
	p := New()
	s1 := buildSnapshot(50)
	id1 := p.OverlaySnapshot(s1, 1)
	id2 := p.OverlaySnapshot(buildSnapshot(30), 2)

	if err := p.Release(id1); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(id1); err != nil {
		t.Errorf("double release should be a no-op: %v", err)
	}
	removed := p.CleanNow()
	if removed == 0 {
		t.Error("cleanup removed nothing")
	}
	// Elements only in graph 1 (nodes 31..50) must be gone.
	if st := p.Stats(); st.PoolNodes != 30 {
		t.Errorf("pool nodes after clean = %d, want 30", st.PoolNodes)
	}
	// Graph 2 must be intact.
	v2, _ := p.View(id2)
	if v2.NumNodes() != 30 || !v2.HasNode(30) {
		t.Error("surviving graph damaged by cleanup")
	}
	if _, err := p.View(id1); err == nil {
		t.Error("released graph still viewable after clean")
	}
	// Bits must be recycled.
	before := p.Stats().Bits
	p.OverlaySnapshot(buildSnapshot(5), 3)
	if p.Stats().Bits != before {
		t.Error("bit pair not recycled")
	}
}

func TestPinDefersCleanup(t *testing.T) {
	p := New()
	s := buildSnapshot(20)
	id := p.OverlaySnapshot(s, 1)
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(id); err != nil {
		t.Fatal(err)
	}
	// Released graphs are not viewable anew; the pin protects the
	// pre-existing view, not new ones.
	if _, err := p.View(id); err == nil {
		t.Fatal("view of released graph allowed")
	}
	// A released-but-pinned graph survives cleanup with its view intact.
	p.CleanNow()
	if st := p.Stats(); st.ActiveGraphs != 2 || st.PinnedGraphs != 1 {
		t.Fatalf("pinned graph reclaimed: %+v", st)
	}
	if !v.Snapshot().Equal(s) {
		t.Fatal("pinned view corrupted by cleanup")
	}
	if got := p.Pins(id); got != 1 {
		t.Fatalf("Pins = %d, want 1", got)
	}
	if err := p.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if removed := p.CleanNow(); removed == 0 {
		t.Fatal("unpinned released graph not reclaimed")
	}
	if st := p.Stats(); st.ActiveGraphs != 1 || st.PinnedGraphs != 0 {
		t.Fatalf("after unpin+clean: %+v", st)
	}
}

func TestPinErrors(t *testing.T) {
	p := New()
	if err := p.Pin(999); err == nil {
		t.Error("pinned unknown graph")
	}
	id := p.OverlaySnapshot(buildSnapshot(3), 1)
	if err := p.Unpin(id); err == nil {
		t.Error("unpinned a graph with no pins")
	}
	p.Release(id)
	if err := p.Pin(id); err == nil {
		t.Error("pinned a released graph")
	}
}

func TestReleaseErrors(t *testing.T) {
	p := New()
	if err := p.Release(CurrentGraph); err == nil {
		t.Error("released the current graph")
	}
	if err := p.Release(12345); err == nil {
		t.Error("released unknown graph")
	}
}

func TestViewOfReleasedGraphFails(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(3), 1)
	p.Release(id)
	if _, err := p.View(id); err == nil {
		t.Error("view of released graph allowed")
	}
}

func TestMappingTable(t *testing.T) {
	p := New()
	h := p.OverlaySnapshot(buildSnapshot(2), 7)
	m := p.OverlayMaterialized(buildSnapshot(2))
	dep, _ := p.OverlayDependent(m, &delta.Delta{}, 9)
	rows := p.MappingTable()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Kind != KindCurrent || rows[0].Bits != [2]int{0, 1} {
		t.Errorf("current row wrong: %+v", rows[0])
	}
	byID := map[GraphID]MappingRow{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	if r := byID[h]; r.Kind != KindHistorical || r.Bits[1] != r.Bits[0]+1 {
		t.Errorf("historical row wrong: %+v", r)
	}
	if r := byID[m]; r.Kind != KindMaterialized || r.Bits[1] != -1 {
		t.Errorf("materialized row wrong: %+v", r)
	}
	if r := byID[dep]; r.Dep != m {
		t.Errorf("dependent row wrong: %+v", r)
	}
}

func TestApproxBytesGrowsSublinearly(t *testing.T) {
	// Overlaying the same snapshot many times must cost far less than
	// disjoint storage: that is GraphPool's reason to exist (Fig 8a).
	p := New()
	s := buildSnapshot(1000)
	p.OverlaySnapshot(s, 1)
	oneBytes := p.ApproxBytes()
	for i := 2; i <= 20; i++ {
		p.OverlaySnapshot(s, graph.Time(i))
	}
	twentyBytes := p.ApproxBytes()
	if twentyBytes > oneBytes*3 {
		t.Errorf("20 identical graphs cost %dx one graph; want ~1x", twentyBytes/oneBytes)
	}
}
