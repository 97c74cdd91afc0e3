// Package graphpool implements GraphPool (Section 6 of the paper): an
// in-memory structure that maintains many graphs — the current graph,
// retrieved historical snapshots, and materialized DeltaGraph nodes —
// overlaid non-redundantly on a single union graph.
//
// The membership matrix (which active graphs contain which element) is
// stored by column. Every element — node, edge, and each distinct
// attribute value — holds a dense int32 slot, and every bit position is
// one bitset over those slots. Bits 0 and 1 are reserved for the current
// graph: bit 0 is current membership; bit 1 marks elements recently
// deleted from the current graph that are not yet flushed into the
// DeltaGraph index. Each historical graph is assigned a bit pair
// {2i, 2i+1}; a materialized graph a single bit. Overlaying a graph costs
// one map probe and one column write per element.
//
// The bit pair enables the paper's dependent-graph optimization: a
// historical graph close to a materialized graph (or the current graph)
// stores only its exceptions. Bit 2i set means "explicit: bit 2i+1 is the
// membership"; bit 2i clear means "inherit membership from the dependency".
// Only exception elements are touched when such a graph is overlaid.
//
// Released graphs are reclaimed lazily by CleanNow: it zeroes their
// columns, ORs the remaining columns into a liveness mask, evicts the
// slots outside it (found through a slot→owner table) and recycles both
// the bits and the slots. A pass costs O(columns × slots/64 + evicted),
// plus one sweep of the adjacency lists when it evicted edges;
// ClearRecent and LoadCurrent zero a single column.
package graphpool

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"historygraph/internal/bitset"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// GraphID identifies one active graph in the pool. The current graph is
// always CurrentGraph.
type GraphID int

// CurrentGraph is the GraphID of the always-present current graph.
const CurrentGraph GraphID = 0

// NoDependency marks a historical graph stored explicitly.
const NoDependency GraphID = -1

// GraphKind classifies the active graphs (the "Graph" column of the
// paper's GraphID-bit mapping table).
type GraphKind uint8

// Graph kinds.
const (
	KindCurrent GraphKind = iota
	KindHistorical
	KindMaterialized
)

func (k GraphKind) String() string {
	switch k {
	case KindCurrent:
		return "Current"
	case KindHistorical:
		return "Hist. Graph"
	case KindMaterialized:
		return "Mat. Graph"
	}
	return "?"
}

// slotKind says what an element slot holds; slotFree marks a recycled one.
type slotKind uint8

const (
	slotFree slotKind = iota
	slotNode
	slotEdge
	slotNodeAttr
	slotEdgeAttr
)

// owner is one row of the slot→owner table: the node or edge ID the slot
// belongs to (for an attribute value, the ID of the element carrying it)
// and, for an edge, its endpoints, so the ID maps hold only slots.
type owner struct {
	id       int64
	from, to graph.NodeID
	kind     slotKind
	directed bool
}

func (o *owner) edgeInfo() graph.EdgeInfo {
	return graph.EdgeInfo{From: o.from, To: o.to, Directed: o.directed}
}

// attrVal is one resident attribute value of an element.
type attrVal struct {
	name int32 // interned attribute name: Pool.names[name]
	slot int32
	val  string
}

// attrSet is every resident attribute value of one element. An element
// carries few attributes, so a scan beats a per-element map.
type attrSet []attrVal

type graphEntry struct {
	id   GraphID
	kind GraphKind
	bit  int         // first bit; the current and historical graphs also own bit+1
	dep  *graphEntry // dependency of a dependent historical graph, else nil
	// attrs selects the attributes a dependent graph inherits from dep
	// where it stores no exception (the attributes its retrieval asked for).
	attrs      graph.AttrOptions
	at         graph.Time
	released   bool
	dependents int
	pins       int
	nodeCount  int
	edgeCount  int
}

// depID returns the mapping-table dependency of g.
func (g *graphEntry) depID() GraphID {
	if g.dep == nil {
		return NoDependency
	}
	return g.dep.id
}

// allAttrs makes a dependent graph inherit every attribute.
var allAttrs = graph.AttrOptions{NodeAll: true, EdgeAll: true}

// Pool is the GraphPool. It is safe for concurrent use; retrieval overlays
// take the write lock, view reads take the read lock.
type Pool struct {
	mu        sync.RWMutex
	nodes     map[graph.NodeID]int32 // node → slot
	edges     map[graph.EdgeID]int32 // edge → slot
	nodeAttrs map[graph.NodeID]attrSet
	edgeAttrs map[graph.EdgeID]attrSet
	adj       map[graph.NodeID][]int32 // node → slots of its incident edges
	names     []string                 // interned attribute names
	nameIDs   map[string]int32         // name → index into names
	graphs    map[GraphID]*graphEntry
	nextID    GraphID
	// cols[b] is the set of slots whose bit b is set. Historical graphs
	// take pairs of columns, materialized graphs singles; freed columns
	// are zeroed and recycled.
	cols        []bitset.Bits
	freePairs   []int
	freeSingles []int
	// Slot allocation: owners[s] describes slot s, used marks the
	// allocated slots, freeSlots holds evicted ones for reuse.
	owners    []owner
	used      bitset.Bits
	freeSlots []int32
	live      bitset.Bits // CleanNow's liveness mask, kept to reuse its words
}

// New returns an empty pool containing only the (empty) current graph.
func New() *Pool {
	p := &Pool{
		nodes:     make(map[graph.NodeID]int32),
		edges:     make(map[graph.EdgeID]int32),
		nodeAttrs: make(map[graph.NodeID]attrSet),
		edgeAttrs: make(map[graph.EdgeID]attrSet),
		adj:       make(map[graph.NodeID][]int32),
		nameIDs:   make(map[string]int32),
		graphs:    make(map[GraphID]*graphEntry),
		nextID:    1,
		cols:      make([]bitset.Bits, 2), // bits 0 and 1 are the current graph's
	}
	p.graphs[CurrentGraph] = &graphEntry{id: CurrentGraph, kind: KindCurrent, bit: 0}
	return p
}

func (p *Pool) allocPair() int {
	if n := len(p.freePairs); n > 0 {
		bit := p.freePairs[n-1]
		p.freePairs = p.freePairs[:n-1]
		return bit
	}
	bit := len(p.cols)
	p.cols = append(p.cols, bitset.Bits{}, bitset.Bits{})
	return bit
}

func (p *Pool) allocSingle() int {
	if n := len(p.freeSingles); n > 0 {
		bit := p.freeSingles[n-1]
		p.freeSingles = p.freeSingles[:n-1]
		return bit
	}
	bit := len(p.cols)
	p.cols = append(p.cols, bitset.Bits{})
	return bit
}

// register adds a new graph to the mapping table.
func (p *Pool) register(kind GraphKind, bit int, at graph.Time) *graphEntry {
	g := &graphEntry{id: p.nextID, kind: kind, bit: bit, at: at}
	p.nextID++
	p.graphs[g.id] = g
	return g
}

func (p *Pool) allocSlot(kind slotKind, id int64) int32 {
	var s int32
	if n := len(p.freeSlots); n > 0 {
		s = p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		p.owners[s] = owner{id: id, kind: kind}
	} else {
		s = int32(len(p.owners))
		p.owners = append(p.owners, owner{id: id, kind: kind})
	}
	p.used.Set(int(s))
	return s
}

func (p *Pool) set(bit int, slot int32)      { p.cols[bit].Set(int(slot)) }
func (p *Pool) unset(bit int, slot int32)    { p.cols[bit].Clear(int(slot)) }
func (p *Pool) get(bit int, slot int32) bool { return p.cols[bit].Get(int(slot)) }

// nodeSlot returns n's slot, making n resident if needed.
func (p *Pool) nodeSlot(n graph.NodeID) int32 {
	if s, ok := p.nodes[n]; ok {
		return s
	}
	s := p.allocSlot(slotNode, int64(n))
	p.nodes[n] = s
	return s
}

// edgeSlot returns e's slot, making e resident if needed.
func (p *Pool) edgeSlot(e graph.EdgeID, info graph.EdgeInfo) int32 {
	if s, ok := p.edges[e]; ok {
		return s
	}
	s := p.allocSlot(slotEdge, int64(e))
	o := &p.owners[s]
	o.from, o.to, o.directed = info.From, info.To, info.Directed
	p.edges[e] = s
	p.adj[info.From] = append(p.adj[info.From], s)
	if info.To != info.From {
		p.adj[info.To] = append(p.adj[info.To], s)
	}
	return s
}

// nameID interns an attribute name. The caller holds the write lock.
func (p *Pool) nameID(name string) int32 {
	id, ok := p.nameIDs[name]
	if !ok {
		id = int32(len(p.names))
		p.names = append(p.names, name)
		p.nameIDs[name] = id
	}
	return id
}

// addVal returns the slot of value val of attribute name in *set,
// appending the value (owned by element id) if it is not resident. The
// caller stores a grown set back into its map.
func (p *Pool) addVal(set *attrSet, name int32, val string, kind slotKind, id int64) int32 {
	for _, av := range *set {
		if av.name == name && av.val == val {
			return av.slot
		}
	}
	s := p.allocSlot(kind, id)
	*set = append(*set, attrVal{name: name, slot: s, val: val})
	return s
}

// member evaluates the bit semantics of one slot for g. The caller holds
// at least the read lock.
func (p *Pool) member(slot int32, g *graphEntry) bool {
	for {
		switch g.kind {
		case KindCurrent:
			return p.get(0, slot)
		case KindMaterialized:
			return p.get(g.bit, slot)
		}
		if p.get(g.bit, slot) {
			return p.get(g.bit+1, slot)
		}
		if g.dep == nil {
			return false
		}
		g = g.dep
	}
}

// attrMember is member for a value of the named node (node) or edge
// attribute: a dependent graph inherits only the attributes it selected.
func (p *Pool) attrMember(slot int32, g *graphEntry, node bool, name string) bool {
	if g.dep != nil && !p.get(g.bit, slot) {
		if node && !g.attrs.WantNodeAttr(name) || !node && !g.attrs.WantEdgeAttr(name) {
			return false
		}
	}
	return p.member(slot, g)
}

// overlayAttrs sets bits on the values of the attributes in src, for
// node attributes (kind slotNodeAttr) or for edge attributes of resident
// edges.
func overlayAttrs[K ~int64](p *Pool, m map[K]attrSet, src map[K]map[string]string, kind slotKind, bits ...int) {
	for id, attrs := range src {
		if kind == slotEdgeAttr {
			if _, ok := p.edges[graph.EdgeID(id)]; !ok {
				continue // attribute for an edge the snapshot does not contain
			}
		}
		set := m[id]
		n := len(set)
		for k, v := range attrs {
			slot := p.addVal(&set, p.nameID(k), v, kind, int64(id))
			for _, b := range bits {
				p.set(b, slot)
			}
		}
		if len(set) != n {
			m[id] = set
		}
	}
}

// OverlaySnapshot registers a retrieved historical snapshot, overlaying
// every element explicitly (no dependency). at records the query timepoint
// for the mapping table.
func (p *Pool) OverlaySnapshot(s *graph.Snapshot, at graph.Time) GraphID {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.register(KindHistorical, p.allocPair(), at)
	exc, mem := &p.cols[g.bit], &p.cols[g.bit+1]
	for n := range s.Nodes {
		slot := int(p.nodeSlot(n))
		exc.Set(slot)
		mem.Set(slot)
	}
	for e, info := range s.Edges {
		slot := int(p.edgeSlot(e, info))
		exc.Set(slot)
		mem.Set(slot)
	}
	overlayAttrs(p, p.nodeAttrs, s.NodeAttrs, slotNodeAttr, g.bit, g.bit+1)
	overlayAttrs(p, p.edgeAttrs, s.EdgeAttrs, slotEdgeAttr, g.bit, g.bit+1)
	g.nodeCount = len(s.Nodes)
	g.edgeCount = len(s.Edges)
	return g.id
}

// OverlayMaterialized registers a materialized DeltaGraph node's graph
// (which may not be a valid snapshot of any time point) under a single bit.
func (p *Pool) OverlayMaterialized(s *graph.Snapshot) GraphID {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.register(KindMaterialized, p.allocSingle(), 0)
	col := &p.cols[g.bit]
	for n := range s.Nodes {
		col.Set(int(p.nodeSlot(n)))
	}
	for e, info := range s.Edges {
		col.Set(int(p.edgeSlot(e, info)))
	}
	overlayAttrs(p, p.nodeAttrs, s.NodeAttrs, slotNodeAttr, g.bit)
	overlayAttrs(p, p.edgeAttrs, s.EdgeAttrs, slotEdgeAttr, g.bit)
	g.nodeCount = len(s.Nodes)
	g.edgeCount = len(s.Edges)
	return g.id
}

// OverlayDependent registers a historical graph stored as exceptions
// relative to dep (a materialized graph or the current graph): d is the
// delta that transforms dep's graph into the snapshot being registered.
// Only the exception elements are touched — the optimization the bit pair
// exists for.
func (p *Pool) OverlayDependent(dep GraphID, d *delta.Delta, at graph.Time) (GraphID, error) {
	return p.OverlayDependentFiltered(dep, d, at, allAttrs)
}

// OverlayDependentFiltered is OverlayDependent for a snapshot retrieved
// with attribute options: d transforms dep's graph, keeping only the
// attributes opts selects, into the snapshot. The registered graph
// inherits only those attributes from dep, so a structure-only snapshot
// overlaid on the current graph shows none of the current graph's
// attributes.
func (p *Pool) OverlayDependentFiltered(dep GraphID, d *delta.Delta, at graph.Time, opts graph.AttrOptions) (GraphID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	depEntry, ok := p.graphs[dep]
	if !ok || depEntry.released {
		return 0, fmt.Errorf("graphpool: dependency graph %d not active", dep)
	}
	if depEntry.kind == KindHistorical {
		return 0, fmt.Errorf("graphpool: dependency must be the current graph or a materialized graph")
	}
	g := p.register(KindHistorical, p.allocPair(), at)
	g.dep, g.attrs = depEntry, opts
	depEntry.dependents++

	exc, mem := g.bit, g.bit+1
	include := func(slot int32) {
		p.set(exc, slot)
		p.set(mem, slot)
	}
	exclude := func(slot int32) {
		p.set(exc, slot)
		p.unset(mem, slot)
	}
	// excludeAll marks every resident value of an attribute as an
	// exception (excluded), before a new value is included.
	excludeAll := func(set attrSet, name int32) {
		for _, av := range set {
			if av.name == name {
				exclude(av.slot)
			}
		}
	}
	for _, n := range d.AddNodes {
		include(p.nodeSlot(n))
	}
	for _, n := range d.DelNodes {
		exclude(p.nodeSlot(n))
	}
	for _, e := range d.AddEdges {
		include(p.edgeSlot(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed}))
	}
	for _, e := range d.DelEdges {
		exclude(p.edgeSlot(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed}))
	}
	for _, rec := range d.SetNodeAttrs {
		set, name := p.nodeAttrs[rec.Node], p.nameID(rec.Attr)
		excludeAll(set, name)
		include(p.addVal(&set, name, rec.Val, slotNodeAttr, int64(rec.Node)))
		p.nodeAttrs[rec.Node] = set
	}
	for _, rec := range d.DelNodeAttrs {
		excludeAll(p.nodeAttrs[rec.Node], p.nameID(rec.Attr))
	}
	for _, rec := range d.SetEdgeAttrs {
		if _, ok := p.edges[rec.Edge]; ok {
			set, name := p.edgeAttrs[rec.Edge], p.nameID(rec.Attr)
			excludeAll(set, name)
			include(p.addVal(&set, name, rec.Val, slotEdgeAttr, int64(rec.Edge)))
			p.edgeAttrs[rec.Edge] = set
		}
	}
	for _, rec := range d.DelEdgeAttrs {
		excludeAll(p.edgeAttrs[rec.Edge], p.nameID(rec.Attr))
	}
	g.nodeCount = depEntry.nodeCount + len(d.AddNodes) - len(d.DelNodes)
	g.edgeCount = depEntry.edgeCount + len(d.AddEdges) - len(d.DelEdges)
	return g.id, nil
}

// LoadCurrent seeds the current graph (bit 0) from a full snapshot; used
// when an index checkpoint is reopened. Any previous current-graph content
// is unmarked first.
func (p *Pool) LoadCurrent(s *graph.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	col := &p.cols[0]
	col.ClearAll()
	for n := range s.Nodes {
		col.Set(int(p.nodeSlot(n)))
	}
	for e, info := range s.Edges {
		col.Set(int(p.edgeSlot(e, info)))
	}
	overlayAttrs(p, p.nodeAttrs, s.NodeAttrs, slotNodeAttr, 0)
	overlayAttrs(p, p.edgeAttrs, s.EdgeAttrs, slotEdgeAttr, 0)
	cur := p.graphs[CurrentGraph]
	cur.nodeCount = len(s.Nodes)
	cur.edgeCount = len(s.Edges)
}

// ApplyEvent updates the current graph in place (bits 0 and 1). Deleted
// elements keep bit 1 set until ClearRecent is called, marking them as
// "recently deleted but not yet in the DeltaGraph index".
func (p *Pool) ApplyEvent(ev graph.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.graphs[CurrentGraph]
	switch ev.Type {
	case graph.AddNode:
		cur.nodeCount += p.enterCurrent(p.nodeSlot(ev.Node))
	case graph.DelNode:
		cur.nodeCount -= p.retire(p.nodeSlot(ev.Node))
	case graph.AddEdge:
		cur.edgeCount += p.enterCurrent(p.edgeSlot(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}))
	case graph.DelEdge:
		cur.edgeCount -= p.retire(p.edgeSlot(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}))
	case graph.SetNodeAttr:
		set, name := p.nodeAttrs[ev.Node], p.nameID(ev.Attr)
		p.retireVals(set, name)
		if ev.HasNew {
			p.set(0, p.addVal(&set, name, ev.New, slotNodeAttr, int64(ev.Node)))
			p.nodeAttrs[ev.Node] = set
		}
	case graph.SetEdgeAttr:
		if _, ok := p.edges[ev.Edge]; ok {
			set, name := p.edgeAttrs[ev.Edge], p.nameID(ev.Attr)
			p.retireVals(set, name)
			if ev.HasNew {
				p.set(0, p.addVal(&set, name, ev.New, slotEdgeAttr, int64(ev.Edge)))
				p.edgeAttrs[ev.Edge] = set
			}
		}
	}
}

// enterCurrent sets bit 0 on slot, returning 1 if it was clear.
func (p *Pool) enterCurrent(slot int32) int {
	if p.get(0, slot) {
		return 0
	}
	p.set(0, slot)
	return 1
}

// retire moves slot out of the current graph into the recently deleted
// set (bit 1), returning 1 if it was in the current graph.
func (p *Pool) retire(slot int32) int {
	p.set(1, slot)
	if !p.get(0, slot) {
		return 0
	}
	p.unset(0, slot)
	return 1
}

// retireVals retires the current value of an attribute.
func (p *Pool) retireVals(set attrSet, name int32) {
	for _, av := range set {
		if av.name == name && p.get(0, av.slot) {
			p.retire(av.slot)
		}
	}
}

// ClearRecent zeroes bit 1: the recently deleted elements are now covered
// by the on-disk index (called after a leaf-eventlist flush).
func (p *Pool) ClearRecent() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cols[1].ClearAll()
}

// Pin takes a reference on an active graph: a pinned graph survives
// CleanNow even after Release, so callers holding long-lived Views (the
// server's hot-snapshot cache) can guarantee the bits stay valid while a
// read is in flight. Pinning a released graph is an error.
func (p *Pool) Pin(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok || entry.released {
		return fmt.Errorf("graphpool: graph %d not active", id)
	}
	entry.pins++
	return nil
}

// Unpin drops a reference taken with Pin. Once a released graph's pin
// count reaches zero the next CleanNow reclaims it. Unpinning works on
// released-but-not-yet-cleaned graphs so readers can finish after an
// eviction.
func (p *Pool) Unpin(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok {
		return fmt.Errorf("graphpool: graph %d not found", id)
	}
	if entry.pins <= 0 {
		return fmt.Errorf("graphpool: graph %d not pinned", id)
	}
	entry.pins--
	return nil
}

// Pins returns the current pin count of a graph (0 if unknown).
func (p *Pool) Pins(id GraphID) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if entry, ok := p.graphs[id]; ok {
		return entry.pins
	}
	return 0
}

// Release marks a graph as no longer needed. Its bits are reclaimed by the
// next CleanNow. Releasing a materialized graph that other active graphs
// depend on is an error; the current graph can never be released.
func (p *Pool) Release(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok {
		return fmt.Errorf("graphpool: graph %d not found", id)
	}
	if entry.kind == KindCurrent {
		return fmt.Errorf("graphpool: cannot release the current graph")
	}
	if entry.dependents > 0 {
		return fmt.Errorf("graphpool: graph %d has %d dependent graphs", id, entry.dependents)
	}
	if entry.released {
		return nil
	}
	entry.released = true
	if entry.dep != nil {
		entry.dep.dependents--
	}
	return nil
}

// CleanNow performs the lazy cleanup pass: it zeroes the columns of every
// released, unpinned graph, evicts the elements no remaining column holds,
// and recycles the bits and the evicted slots. It returns the number of
// elements (nodes, edges and attribute values) removed from the pool.
// (The paper performs this periodically in the absence of query load; the
// library leaves scheduling to the caller — see Cleaner.)
func (p *Pool) CleanNow() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	reclaimed := false
	for id, g := range p.graphs {
		if !g.released || g.pins > 0 {
			continue
		}
		reclaimed = true
		p.cols[g.bit].ClearAll()
		if g.kind == KindHistorical {
			p.cols[g.bit+1].ClearAll()
			p.freePairs = append(p.freePairs, g.bit)
		} else {
			p.freeSingles = append(p.freeSingles, g.bit)
		}
		delete(p.graphs, id)
	}
	if !reclaimed {
		return 0
	}
	p.live.ClearAll()
	for _, g := range p.graphs {
		p.live.Or(&p.cols[g.bit])
		if g.kind != KindMaterialized {
			p.live.Or(&p.cols[g.bit+1])
		}
	}
	removed, edges := 0, len(p.edges)
	p.used.EachNotIn(&p.live, func(i int) {
		p.evict(int32(i))
		removed++
	})
	if len(p.edges) < edges {
		// One sweep drops the evicted edges from the adjacency lists; a
		// pass typically evicts edges at most nodes, so this beats a
		// lookup and scan per endpoint.
		for n, list := range p.adj {
			kept := slices.DeleteFunc(list, func(s int32) bool { return !p.used.Get(int(s)) })
			if len(kept) == 0 {
				delete(p.adj, n)
			} else if len(kept) < len(list) {
				p.adj[n] = kept
			}
		}
	}
	return removed
}

// evict removes the element in slot from the pool (an evicted edge stays
// in the adjacency lists until CleanNow's sweep) and frees the slot. The
// slot has no bit set in any column, so a later owner starts clean.
func (p *Pool) evict(slot int32) {
	o := p.owners[slot]
	switch o.kind {
	case slotNode:
		delete(p.nodes, graph.NodeID(o.id))
	case slotEdge:
		delete(p.edges, graph.EdgeID(o.id))
	case slotNodeAttr:
		dropVal(p.nodeAttrs, graph.NodeID(o.id), slot)
	case slotEdgeAttr:
		dropVal(p.edgeAttrs, graph.EdgeID(o.id), slot)
	}
	p.owners[slot] = owner{}
	p.used.Clear(int(slot))
	p.freeSlots = append(p.freeSlots, slot)
}

// dropVal removes the attribute value held in slot from id's set.
func dropVal[K comparable](m map[K]attrSet, id K, slot int32) {
	set := m[id]
	i := slices.IndexFunc(set, func(av attrVal) bool { return av.slot == slot })
	if i < 0 {
		return
	}
	if set = slices.Delete(set, i, i+1); len(set) == 0 {
		delete(m, id)
	} else {
		m[id] = set
	}
}

// MappingRow is one row of the GraphID-bit mapping table (the paper's
// Table 3 / Figure 5(c)).
type MappingRow struct {
	Bits [2]int // second is -1 for single-bit graphs
	ID   GraphID
	Kind GraphKind
	Dep  GraphID // NoDependency if independent
	At   graph.Time
}

// MappingTable returns the active GraphID-bit mapping rows sorted by first
// bit.
func (p *Pool) MappingTable() []MappingRow {
	p.mu.RLock()
	defer p.mu.RUnlock()
	rows := make([]MappingRow, 0, len(p.graphs))
	for _, e := range p.graphs {
		row := MappingRow{ID: e.id, Kind: e.kind, Dep: e.depID(), At: e.at}
		row.Bits[0] = e.bit
		row.Bits[1] = -1
		if e.kind == KindHistorical || e.kind == KindCurrent {
			row.Bits[1] = e.bit + 1
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bits[0] < rows[j].Bits[0] })
	return rows
}

// Stats summarizes the pool's contents.
type Stats struct {
	ActiveGraphs int
	PinnedGraphs int // graphs with at least one Pin reference
	PoolNodes    int // union-graph nodes resident
	PoolEdges    int
	Bits         int // bit columns allocated (the bitmap width)
}

// Stats returns current pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{
		ActiveGraphs: len(p.graphs),
		PoolNodes:    len(p.nodes),
		PoolEdges:    len(p.edges),
		Bits:         len(p.cols),
	}
	for _, e := range p.graphs {
		if e.pins > 0 {
			st.PinnedGraphs++
		}
	}
	return st
}

// ApproxBytes estimates the pool's memory footprint: element records,
// adjacency entries, attribute values, the slot table and the bit
// columns. It is the quantity plotted in the paper's Figure 8(a).
func (p *Pool) ApproxBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	const (
		elemOverhead = 16 // map entry: node or edge ID → slot
		setOverhead  = 32 // map entry: element ID → attribute set
		attrOverhead = 24 // value entry
		slotOverhead = 32 // slot→owner row
		adjEntry     = 4
	)
	total := int64((len(p.nodes)+len(p.edges))*elemOverhead + len(p.owners)*slotOverhead)
	total += attrBytes(p.nodeAttrs, setOverhead, attrOverhead) + attrBytes(p.edgeAttrs, setOverhead, attrOverhead)
	for _, name := range p.names {
		total += int64(len(name))
	}
	for _, list := range p.adj {
		total += adjEntry * int64(len(list))
	}
	total += int64(p.used.SizeBytes())
	for i := range p.cols {
		total += int64(p.cols[i].SizeBytes())
	}
	return total
}

func attrBytes[K comparable](m map[K]attrSet, setOverhead, attrOverhead int) int64 {
	total := int64(len(m) * setOverhead)
	for _, set := range m {
		for _, av := range set {
			total += int64(attrOverhead + len(av.val))
		}
	}
	return total
}
