package graphpool

import (
	"fmt"

	"historygraph/internal/graph"
)

// View is a read-only view of one active graph overlaid in the pool — the
// HistGraph handle the paper's programmatic API returns. All methods
// evaluate membership through the bitmap semantics, so a view is always
// consistent with the pool even as other graphs come and go.
type View struct {
	p     *Pool
	entry *graphEntry
}

// View returns a read view of the given active graph.
func (p *Pool) View(id GraphID) (*View, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	entry, ok := p.graphs[id]
	if !ok || entry.released {
		return nil, fmt.Errorf("graphpool: graph %d not active", id)
	}
	return &View{p: p, entry: entry}, nil
}

// Current returns a view of the current graph.
func (p *Pool) Current() *View {
	v, _ := p.View(CurrentGraph)
	return v
}

// ID returns the view's graph ID.
func (v *View) ID() GraphID { return v.entry.id }

// At returns the timepoint the graph was retrieved for (zero for the
// current graph and materialized graphs).
func (v *View) At() graph.Time { return v.entry.at }

// DependsOnCurrent reports whether this graph is overlaid as exceptions
// against the current graph. Such a view's non-exception membership is
// evaluated through the current graph's live bits, so it is only valid
// while the current graph does not change — callers that hold views
// across updates (the server's hot-snapshot cache) must drop it on
// append.
func (v *View) DependsOnCurrent() bool { return v.entry.dep != nil && v.entry.dep.kind == KindCurrent }

// NumNodes returns the node count of this graph.
func (v *View) NumNodes() int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	return v.entry.nodeCount
}

// NumEdges returns the edge count of this graph.
func (v *View) NumEdges() int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	return v.entry.edgeCount
}

// HasNode reports whether the node is in this graph.
func (v *View) HasNode(n graph.NodeID) bool {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.nodes[n]
	return ok && v.p.member(slot, v.entry)
}

// HasEdge reports whether the edge is in this graph.
func (v *View) HasEdge(e graph.EdgeID) bool {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.edges[e]
	return ok && v.p.member(slot, v.entry)
}

// EdgeInfo returns the endpoints of an edge in this graph.
func (v *View) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.edges[e]
	if !ok || !v.p.member(slot, v.entry) {
		return graph.EdgeInfo{}, false
	}
	return v.p.owners[slot].edgeInfo(), true
}

// ForEachNode calls fn for every node in this graph until fn returns false.
// The pool's read lock is held for the duration; fn must not call pool
// methods that take the write lock.
func (v *View) ForEachNode(fn func(graph.NodeID) bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	for id, slot := range v.p.nodes {
		if v.p.member(slot, v.entry) {
			if !fn(id) {
				return
			}
		}
	}
}

// ForEachEdge calls fn for every edge in this graph until fn returns false.
func (v *View) ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	for id, slot := range v.p.edges {
		if v.p.member(slot, v.entry) {
			if !fn(id, v.p.owners[slot].edgeInfo()) {
				return
			}
		}
	}
}

// Nodes returns all node IDs in this graph (unordered).
func (v *View) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, v.NumNodes())
	v.ForEachNode(func(n graph.NodeID) bool {
		out = append(out, n)
		return true
	})
	return out
}

// IncidentEdges returns the IDs of this graph's edges incident to n.
func (v *View) IncidentEdges(n graph.NodeID) []graph.EdgeID {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	var out []graph.EdgeID
	for _, slot := range v.p.adj[n] {
		if v.p.member(slot, v.entry) {
			out = append(out, graph.EdgeID(v.p.owners[slot].id))
		}
	}
	return out
}

// Neighbors returns the distinct nodes adjacent to n in this graph
// (treating directed edges as traversable both ways, as the paper's
// getNeighbors example does).
func (v *View) Neighbors(n graph.NodeID) []graph.NodeID {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	seen := make(map[graph.NodeID]struct{})
	var out []graph.NodeID
	for _, slot := range v.p.adj[n] {
		if !v.p.member(slot, v.entry) {
			continue
		}
		other := v.p.owners[slot].edgeInfo().Other(n)
		if _, dup := seen[other]; !dup {
			seen[other] = struct{}{}
			out = append(out, other)
		}
	}
	return out
}

// Degree returns the number of edges of this graph incident to n.
func (v *View) Degree(n graph.NodeID) int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	d := 0
	for _, slot := range v.p.adj[n] {
		if v.p.member(slot, v.entry) {
			d++
		}
	}
	return d
}

// NodeAttr returns the value of a node attribute in this graph.
func (v *View) NodeAttr(n graph.NodeID, attr string) (string, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.nodes[n]
	if !ok || !v.p.member(slot, v.entry) {
		return "", false
	}
	return v.p.attrIn(v.p.nodeAttrs[n], v.entry, true, attr)
}

// EdgeAttr returns the value of an edge attribute in this graph.
func (v *View) EdgeAttr(e graph.EdgeID, attr string) (string, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.edges[e]
	if !ok || !v.p.member(slot, v.entry) {
		return "", false
	}
	return v.p.attrIn(v.p.edgeAttrs[e], v.entry, false, attr)
}

// NodeAttrs returns all attributes of n in this graph.
func (v *View) NodeAttrs(n graph.NodeID) map[string]string {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.nodes[n]
	if !ok || !v.p.member(slot, v.entry) {
		return nil
	}
	return v.p.attrsIn(v.p.nodeAttrs[n], v.entry, true)
}

// EdgeAttrs returns all attributes of e in this graph (nil when the edge
// is absent or bare) — the edge-side sibling of NodeAttrs, so run-at-a-
// time consumers (the server's streaming encoder) can walk edges without
// detaching a whole Snapshot.
func (v *View) EdgeAttrs(e graph.EdgeID) map[string]string {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	slot, ok := v.p.edges[e]
	if !ok || !v.p.member(slot, v.entry) {
		return nil
	}
	return v.p.attrsIn(v.p.edgeAttrs[e], v.entry, false)
}

// attrIn returns the value of the named node (node) or edge attribute
// that graph g holds among set. The caller holds the read lock.
func (p *Pool) attrIn(set attrSet, g *graphEntry, node bool, name string) (string, bool) {
	id, ok := p.nameIDs[name]
	if !ok {
		return "", false
	}
	for _, av := range set {
		if av.name == id && p.attrMember(av.slot, g, node, name) {
			return av.val, true
		}
	}
	return "", false
}

// attrsIn returns the attributes in set that graph g holds (nil when
// none). The caller holds the read lock.
func (p *Pool) attrsIn(set attrSet, g *graphEntry, node bool) map[string]string {
	var out map[string]string
	for _, av := range set {
		name := p.names[av.name]
		if _, done := out[name]; done || !p.attrMember(av.slot, g, node, name) {
			continue
		}
		if out == nil {
			out = make(map[string]string)
		}
		out[name] = av.val
	}
	return out
}

// Snapshot extracts a full set-based copy of this graph out of the pool.
func (v *View) Snapshot() *graph.Snapshot {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	s := graph.NewSnapshot()
	for id, slot := range v.p.nodes {
		if !v.p.member(slot, v.entry) {
			continue
		}
		s.Nodes[id] = struct{}{}
		if attrs := v.p.attrsIn(v.p.nodeAttrs[id], v.entry, true); attrs != nil {
			s.NodeAttrs[id] = attrs
		}
	}
	for id, slot := range v.p.edges {
		if !v.p.member(slot, v.entry) {
			continue
		}
		s.Edges[id] = v.p.owners[slot].edgeInfo()
		if attrs := v.p.attrsIn(v.p.edgeAttrs[id], v.entry, false); attrs != nil {
			s.EdgeAttrs[id] = attrs
		}
	}
	return s
}
