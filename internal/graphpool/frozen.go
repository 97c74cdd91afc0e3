package graphpool

import (
	"historygraph/internal/bitset"
	"historygraph/internal/graph"
)

// FrozenView is a lock-free, immutable projection of a View for iterative
// analytics (the paper runs PageRank directly over the pool). Freezing
// resolves the union adjacency once and packs each element's relevant
// column bits into one inline word; traversal then pays exactly one
// bitmap membership test per visited element — no locks, no pointer
// chasing — which is the cost the paper's bitmap-penalty experiment
// measures (Section 7: ~7% on PageRank).
//
// The projection reflects the pool at freeze time; graphs overlaid or
// released afterwards are not observed. Freeze again to refresh.
type FrozenView struct {
	test    membershipTest
	nodes   []frozenNode
	adj     map[graph.NodeID][]frozenEdge
	numNode int
}

type frozenNode struct {
	id   graph.NodeID
	word uint64 // the column bits the test needs, packed
}

type frozenEdge struct {
	other graph.NodeID
	word  uint64
}

// membershipTest evaluates membership from the packed word: the exception
// bit pair (for historical graphs) and the dependency bit are shifted into
// known positions at freeze time.
type membershipTest struct {
	excMask, memMask, depMask uint64
	useDep                    bool
}

func (t membershipTest) member(w uint64) bool {
	if w&t.excMask != 0 {
		return w&t.memMask != 0
	}
	if t.useDep {
		return w&t.depMask != 0
	}
	return false
}

// Freeze builds the lock-free projection of the view.
func (v *View) Freeze() *FrozenView {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	entry := v.entry
	// Resolve the bit layout once: the packed word holds the entry pair
	// (or the single bit) in positions 0/1, the dependency bit in 2. The
	// current and materialized graphs are modelled as "always explicit".
	var exc, mem, dep *bitset.Bits
	test := membershipTest{excMask: 1, memMask: 2, depMask: 4}
	switch entry.kind {
	case KindCurrent:
		mem = &v.p.cols[0]
	case KindMaterialized:
		mem = &v.p.cols[entry.bit]
	default:
		exc, mem = &v.p.cols[entry.bit], &v.p.cols[entry.bit+1]
		if entry.dep != nil {
			test.useDep = true
			dep = &v.p.cols[entry.dep.bit] // current graph: bit 0; materialized: its bit
		}
	}
	pack := func(slot int32) uint64 {
		var w uint64
		if exc == nil || exc.Get(int(slot)) {
			w |= 1
		}
		if mem.Get(int(slot)) {
			w |= 2
		}
		if dep != nil && dep.Get(int(slot)) {
			w |= 4
		}
		return w
	}

	f := &FrozenView{test: test, adj: make(map[graph.NodeID][]frozenEdge), numNode: entry.nodeCount}
	for id, slot := range v.p.nodes {
		f.nodes = append(f.nodes, frozenNode{id: id, word: pack(slot)})
	}
	for _, slot := range v.p.edges {
		w, o := pack(slot), &v.p.owners[slot]
		f.adj[o.from] = append(f.adj[o.from], frozenEdge{other: o.to, word: w})
		if o.to != o.from {
			f.adj[o.to] = append(f.adj[o.to], frozenEdge{other: o.from, word: w})
		}
	}
	return f
}

// NumNodes implements the analytics Graph interface.
func (f *FrozenView) NumNodes() int { return f.numNode }

// ForEachNode implements the analytics Graph interface.
func (f *FrozenView) ForEachNode(fn func(graph.NodeID) bool) {
	for _, n := range f.nodes {
		if f.test.member(n.word) {
			if !fn(n.id) {
				return
			}
		}
	}
}

// Neighbors implements the analytics Graph interface (allocating).
func (f *FrozenView) Neighbors(n graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range f.adj[n] {
		if f.test.member(e.word) {
			out = append(out, e.other)
		}
	}
	return out
}

// ForEachNeighbor visits n's neighbors without allocating; every visit
// performs one bitmap membership test (the measured penalty).
func (f *FrozenView) ForEachNeighbor(n graph.NodeID, fn func(graph.NodeID) bool) {
	for _, e := range f.adj[n] {
		if f.test.member(e.word) {
			if !fn(e.other) {
				return
			}
		}
	}
}

// Degree counts n's edges in this graph.
func (f *FrozenView) Degree(n graph.NodeID) int {
	d := 0
	for _, e := range f.adj[n] {
		if f.test.member(e.word) {
			d++
		}
	}
	return d
}
