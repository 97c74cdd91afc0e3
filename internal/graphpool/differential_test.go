package graphpool

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// The differential test drives a pool with random programs and checks,
// after every step, every active graph against a per-graph reference
// snapshot, plus the pool's slot and column invariants.

const (
	diffNodes = 24
	diffEdges = 36
)

var (
	diffNodeAttrs = []string{"a", "b"}
	diffEdgeAttrs = []string{"w"}
	diffVals      = []string{"x", "y", "z"}
	diffOpts      = []string{"", "+node:all", "+node:a", "+node:all-node:b+edge:w", "+node:all+edge:all"}
)

// diffEnds fixes each edge's endpoints for the life of the program, as
// edge IDs are in the index.
func diffEnds(e graph.EdgeID) graph.EdgeInfo {
	from := graph.NodeID(1 + int(e)%diffNodes)
	to := graph.NodeID(1 + (int(e)*7+3)%diffNodes)
	if to == from {
		to = 1 + to%diffNodes
	}
	return graph.EdgeInfo{From: from, To: to, Directed: e%3 == 0}
}

type refGraph struct {
	snap     *graph.Snapshot
	kind     GraphKind
	dep      GraphID
	stale    bool // overlaid on the current graph, which has changed since
	released bool
	pins     int
	deps     int
}

type diffProgram struct {
	t     *testing.T
	rng   *rand.Rand
	p     *Pool
	cur   *graph.Snapshot
	refs  map[GraphID]*refGraph
	at    graph.Time
	trace []string
}

func (d *diffProgram) logf(format string, args ...any) {
	d.trace = append(d.trace, fmt.Sprintf(format, args...))
}

func (d *diffProgram) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s\nprogram so far:\n  %s", fmt.Sprintf(format, args...), strings.Join(d.trace, "\n  "))
}

// randomAttrs sets random values on a random subset of names.
func (d *diffProgram) randomAttrs(names []string) map[string]string {
	var attrs map[string]string
	for _, k := range names {
		if d.rng.Intn(2) == 0 {
			if attrs == nil {
				attrs = make(map[string]string)
			}
			attrs[k] = diffVals[d.rng.Intn(len(diffVals))]
		}
	}
	return attrs
}

// randomSnapshot draws a consistent snapshot over the universe.
func (d *diffProgram) randomSnapshot() *graph.Snapshot {
	s := graph.NewSnapshot()
	for n := graph.NodeID(1); n <= diffNodes; n++ {
		if d.rng.Intn(3) != 0 {
			s.Nodes[n] = struct{}{}
			if a := d.randomAttrs(diffNodeAttrs); a != nil {
				s.NodeAttrs[n] = a
			}
		}
	}
	for e := graph.EdgeID(1); e <= diffEdges; e++ {
		d.maybeAddEdge(s, e)
	}
	return s
}

func (d *diffProgram) maybeAddEdge(s *graph.Snapshot, e graph.EdgeID) {
	info := diffEnds(e)
	_, okf := s.Nodes[info.From]
	_, okt := s.Nodes[info.To]
	if okf && okt && d.rng.Intn(2) == 0 {
		s.Edges[e] = info
		if a := d.randomAttrs(diffEdgeAttrs); a != nil {
			s.EdgeAttrs[e] = a
		}
	}
}

// perturb returns a copy of base with a few random changes: the target of
// a dependent overlay.
func (d *diffProgram) perturb(base *graph.Snapshot) *graph.Snapshot {
	s := base.Clone()
	for i := d.rng.Intn(4); i > 0; i-- {
		n := graph.NodeID(1 + d.rng.Intn(diffNodes))
		if _, ok := s.Nodes[n]; ok {
			delete(s.Nodes, n)
			delete(s.NodeAttrs, n)
			for e, info := range s.Edges {
				if info.From == n || info.To == n {
					delete(s.Edges, e)
					delete(s.EdgeAttrs, e)
				}
			}
		} else {
			s.Nodes[n] = struct{}{}
		}
	}
	for i := d.rng.Intn(4); i > 0; i-- {
		e := graph.EdgeID(1 + d.rng.Intn(diffEdges))
		if _, ok := s.Edges[e]; ok {
			delete(s.Edges, e)
			delete(s.EdgeAttrs, e)
		} else {
			d.maybeAddEdge(s, e)
		}
	}
	for i := d.rng.Intn(4); i > 0; i-- {
		n := graph.NodeID(1 + d.rng.Intn(diffNodes))
		if _, ok := s.Nodes[n]; !ok {
			continue
		}
		k := diffNodeAttrs[d.rng.Intn(len(diffNodeAttrs))]
		if d.rng.Intn(3) == 0 {
			delete(s.NodeAttrs[n], k)
			if len(s.NodeAttrs[n]) == 0 {
				delete(s.NodeAttrs, n)
			}
			continue
		}
		if s.NodeAttrs[n] == nil {
			s.NodeAttrs[n] = make(map[string]string)
		}
		s.NodeAttrs[n][k] = diffVals[d.rng.Intn(len(diffVals))]
	}
	for e := range s.Edges {
		if d.rng.Intn(6) == 0 {
			s.EdgeAttrs[e] = map[string]string{"w": diffVals[d.rng.Intn(len(diffVals))]}
		}
	}
	return s
}

func (d *diffProgram) add(id GraphID, r *refGraph) {
	if _, dup := d.refs[id]; dup {
		d.fail("graph ID %d reused", id)
	}
	d.refs[id] = r
}

// overlayDependent registers a perturbation of dep's graph the way
// DeltaGraph.Retrieve does: exceptions against the base filtered to the
// retrieval's attribute options.
func (d *diffProgram) overlayDependent(dep GraphID, base *graph.Snapshot) {
	optStr := diffOpts[d.rng.Intn(len(diffOpts))]
	opts := graph.MustParseAttrOptions(optStr)
	target := opts.FilterSnapshot(d.perturb(base))
	exc := delta.Compute(target, opts.FilterSnapshot(base.Clone()))
	d.at++
	id, err := d.p.OverlayDependentFiltered(dep, exc, d.at, opts)
	if err != nil {
		d.fail("OverlayDependentFiltered(%d): %v", dep, err)
	}
	d.logf("g%d = dependent on g%d %q", id, dep, optStr)
	d.refs[dep].deps++
	d.add(id, &refGraph{snap: target, kind: KindHistorical, dep: dep})
}

// applyEvent applies one random event that is valid against the current
// graph, as the index would.
func (d *diffProgram) applyEvent() {
	d.at++
	n := graph.NodeID(1 + d.rng.Intn(diffNodes))
	e := graph.EdgeID(1 + d.rng.Intn(diffEdges))
	info := diffEnds(e)
	var ev graph.Event
	switch d.rng.Intn(5) {
	case 0:
		ev = graph.Event{Type: graph.AddNode, Node: n}
	case 1:
		ev = graph.Event{Type: graph.DelNode, Node: n}
		for _, einfo := range d.cur.Edges {
			if einfo.From == n || einfo.To == n {
				return // the index deletes incident edges first
			}
		}
	case 2:
		ev = graph.Event{Type: graph.AddEdge, Edge: e, Node: info.From, Node2: info.To, Directed: info.Directed}
	case 3:
		ev = graph.Event{Type: graph.DelEdge, Edge: e, Node: info.From, Node2: info.To, Directed: info.Directed}
	default:
		k := diffNodeAttrs[d.rng.Intn(len(diffNodeAttrs))]
		old, had := d.cur.NodeAttrs[n][k]
		ev = graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: k, Old: old, HadOld: had}
		if d.rng.Intn(3) != 0 {
			ev.New, ev.HasNew = diffVals[d.rng.Intn(len(diffVals))], true
		}
		if d.rng.Intn(2) == 0 {
			_, onEdge := d.cur.Edges[e]
			if !onEdge {
				return
			}
			old, had := d.cur.EdgeAttrs[e]["w"]
			ev = graph.Event{Type: graph.SetEdgeAttr, Edge: e, Attr: "w", Old: old, HadOld: had,
				New: diffVals[d.rng.Intn(len(diffVals))], HasNew: d.rng.Intn(3) != 0}
		}
	}
	ev.At = d.at
	if d.cur.ApplyStrict(ev) != nil {
		return // not applicable to the current graph
	}
	d.p.ApplyEvent(ev)
	d.logf("apply %v node %d edge %d attr %q=%q (has %v)", ev.Type, ev.Node, ev.Edge, ev.Attr, ev.New, ev.HasNew)
	for _, r := range d.refs {
		if r.dep == CurrentGraph && r.kind == KindHistorical {
			r.stale = true // a current-dependent view is valid only until the next change
		}
	}
}

// pick returns a random graph ID satisfying ok, or false.
func (d *diffProgram) pick(ok func(*refGraph) bool) (GraphID, bool) {
	var ids []GraphID
	for id, r := range d.refs {
		if ok(r) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[d.rng.Intn(len(ids))], true
}

func (d *diffProgram) step() {
	switch d.rng.Intn(14) {
	case 0, 1:
		s := d.randomSnapshot()
		d.at++
		id := d.p.OverlaySnapshot(s, d.at)
		d.logf("g%d = explicit", id)
		d.add(id, &refGraph{snap: s, kind: KindHistorical, dep: NoDependency})
	case 2:
		s := d.randomSnapshot()
		id := d.p.OverlayMaterialized(s)
		d.logf("g%d = materialized", id)
		d.add(id, &refGraph{snap: s, kind: KindMaterialized, dep: NoDependency})
	case 3:
		d.overlayDependent(CurrentGraph, d.cur)
	case 4:
		if id, ok := d.pick(func(r *refGraph) bool { return r.kind == KindMaterialized && !r.released }); ok {
			d.overlayDependent(id, d.refs[id].snap)
		}
	case 5, 6, 7:
		d.applyEvent()
	case 8:
		d.p.ClearRecent()
		d.logf("clear recent")
	case 9, 10:
		if id, ok := d.pick(func(r *refGraph) bool { return r.kind != KindCurrent && !r.released }); ok {
			r := d.refs[id]
			err := d.p.Release(id)
			if (err == nil) != (r.deps == 0) {
				d.fail("Release(g%d) with %d dependents: err %v", id, r.deps, err)
			}
			if err == nil {
				d.logf("release g%d", id)
				r.released = true
				if r.dep != NoDependency {
					d.refs[r.dep].deps--
				}
			}
		}
	case 11:
		if id, ok := d.pick(func(r *refGraph) bool { return r.kind != KindCurrent && !r.released }); ok {
			if err := d.p.Pin(id); err != nil {
				d.fail("Pin(g%d): %v", id, err)
			}
			d.logf("pin g%d", id)
			d.refs[id].pins++
		}
	case 12:
		if id, ok := d.pick(func(r *refGraph) bool { return r.pins > 0 }); ok {
			if err := d.p.Unpin(id); err != nil {
				d.fail("Unpin(g%d): %v", id, err)
			}
			d.logf("unpin g%d", id)
			d.refs[id].pins--
		}
	default:
		n := d.p.CleanNow()
		d.logf("clean: %d evicted", n)
		for id, r := range d.refs {
			if r.released && r.pins == 0 {
				delete(d.refs, id)
				if _, err := d.p.View(id); err == nil {
					d.fail("cleaned graph g%d still viewable", id)
				}
			}
		}
	}
}

// check compares every active graph with its reference.
func (d *diffProgram) check() {
	d.t.Helper()
	for id, r := range d.refs {
		if r.released || r.stale {
			continue
		}
		v, err := d.p.View(id)
		if err != nil {
			d.fail("View(g%d): %v", id, err)
		}
		d.checkView(id, v, r.snap)
	}
	d.checkSlots()
}

func (d *diffProgram) checkView(id GraphID, v *View, want *graph.Snapshot) {
	d.t.Helper()
	if got := v.Snapshot(); !got.Equal(want) {
		d.fail("g%d: Snapshot() = %v, want %v", id, got, want)
	}
	if v.NumNodes() != len(want.Nodes) || v.NumEdges() != len(want.Edges) {
		d.fail("g%d: counts %d/%d, want %d/%d", id, v.NumNodes(), v.NumEdges(), len(want.Nodes), len(want.Edges))
	}
	degree := make(map[graph.NodeID]int)
	for _, info := range want.Edges {
		degree[info.From]++
		degree[info.To]++
	}
	f := v.Freeze()
	if f.NumNodes() != len(want.Nodes) {
		d.fail("g%d: frozen NumNodes %d, want %d", id, f.NumNodes(), len(want.Nodes))
	}
	frozen := 0
	f.ForEachNode(func(n graph.NodeID) bool {
		frozen++
		if _, ok := want.Nodes[n]; !ok {
			d.fail("g%d: frozen view has node %d", id, n)
		}
		return true
	})
	if frozen != len(want.Nodes) {
		d.fail("g%d: frozen view visits %d nodes, want %d", id, frozen, len(want.Nodes))
	}
	for n := graph.NodeID(1); n <= diffNodes+1; n++ {
		_, in := want.Nodes[n]
		if v.HasNode(n) != in {
			d.fail("g%d: HasNode(%d) = %v, want %v", id, n, !in, in)
		}
		if in && (v.Degree(n) != degree[n] || f.Degree(n) != degree[n]) {
			d.fail("g%d: Degree(%d) = %d, frozen %d, want %d", id, n, v.Degree(n), f.Degree(n), degree[n])
		}
		for _, k := range diffNodeAttrs {
			wantVal, wantOK := want.NodeAttrs[n][k]
			if got, ok := v.NodeAttr(n, k); ok != wantOK || got != wantVal {
				d.fail("g%d: NodeAttr(%d, %s) = %q/%v, want %q/%v", id, n, k, got, ok, wantVal, wantOK)
			}
		}
	}
	for e := graph.EdgeID(1); e <= diffEdges+1; e++ {
		_, in := want.Edges[e]
		if v.HasEdge(e) != in {
			d.fail("g%d: HasEdge(%d) = %v, want %v", id, e, !in, in)
		}
		for _, k := range diffEdgeAttrs {
			wantVal, wantOK := want.EdgeAttrs[e][k]
			if got, ok := v.EdgeAttr(e, k); ok != wantOK || got != wantVal {
				d.fail("g%d: EdgeAttr(%d, %s) = %q/%v, want %q/%v", id, e, k, got, ok, wantVal, wantOK)
			}
		}
	}
}

// checkSlots verifies the column layout's invariants: every resident
// element owns exactly one allocated slot, and a free slot has no bit set
// in any column, so a slot's next owner starts with no membership.
func (d *diffProgram) checkSlots() {
	d.t.Helper()
	p := d.p
	owned := make(map[int32]owner)
	claim := func(slot int32, o owner) {
		if prev, dup := owned[slot]; dup {
			d.fail("slot %d owned twice: %+v and %+v", slot, prev, o)
		}
		if p.owners[slot] != o {
			d.fail("slot %d: owner table %+v, want %+v", slot, p.owners[slot], o)
		}
		owned[slot] = o
	}
	for n, slot := range p.nodes {
		claim(slot, owner{id: int64(n), kind: slotNode})
	}
	for e, slot := range p.edges {
		info := diffEnds(e)
		claim(slot, owner{id: int64(e), kind: slotEdge, from: info.From, to: info.To, directed: info.Directed})
	}
	for n, set := range p.nodeAttrs {
		for _, av := range set {
			claim(av.slot, owner{id: int64(n), kind: slotNodeAttr})
		}
	}
	for e, set := range p.edgeAttrs {
		for _, av := range set {
			claim(av.slot, owner{id: int64(e), kind: slotEdgeAttr})
		}
	}
	// Each resident edge's slot appears once in each endpoint's adjacency
	// list, and the lists hold nothing else.
	adj := 0
	for n, list := range p.adj {
		for _, slot := range list {
			o := p.owners[slot]
			if o.kind != slotEdge || (o.from != n && o.to != n) {
				d.fail("adjacency of node %d holds slot %d (%+v)", n, slot, o)
			}
		}
		adj += len(list)
	}
	want := 0
	for _, slot := range p.edges {
		want += 2
		if o := p.owners[slot]; o.from == o.to {
			want--
		}
	}
	if adj != want {
		d.fail("adjacency lists hold %d entries, want %d", adj, want)
	}
	for s := range p.owners {
		slot := int32(s)
		_, isOwned := owned[slot]
		if p.used.Get(s) != isOwned {
			d.fail("slot %d: used bit %v, owned %v", s, !isOwned, isOwned)
		}
		if isOwned {
			continue
		}
		if p.owners[s] != (owner{}) {
			d.fail("free slot %d still has owner %+v", s, p.owners[s])
		}
		for b := range p.cols {
			if p.cols[b].Get(s) {
				d.fail("free slot %d has bit %d set", s, b)
			}
		}
	}
}

// TestPoolRandomizedIsolation runs random programs of overlays (explicit,
// dependent on the current graph, dependent on a materialized graph),
// current-graph events, ClearRecent, Release, Pin/Unpin and repeated
// CleanNow, checking every active graph after every step. Slots and bits
// evicted by a clean are reused by later overlays.
func TestPoolRandomizedIsolation(t *testing.T) {
	reused := 0
	check := func(seed int64) bool {
		d := &diffProgram{
			t: t, rng: rand.New(rand.NewSource(seed)), p: New(),
			cur: graph.NewSnapshot(), refs: make(map[GraphID]*refGraph),
		}
		d.refs[CurrentGraph] = &refGraph{snap: d.cur, kind: KindCurrent, dep: NoDependency}
		for i := 0; i < 100; i++ {
			free := len(d.p.freeSlots)
			d.step()
			if free > 0 && len(d.p.freeSlots) < free {
				reused++
			}
			d.check()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if reused == 0 {
		t.Error("no program reused an evicted slot")
	}
}
