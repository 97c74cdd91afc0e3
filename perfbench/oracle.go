package main

import (
	"fmt"
	"math/rand"
	"sort"

	"historygraph/internal/datagen"
	"historygraph/internal/graph"
)

// genPrefix builds the seeded Dataset-2-shaped trace that setup loads.
func genPrefix(ts traceSpec, seed int64) graph.EventList {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: ts.Authors, Edges: ts.Edges, Years: ts.Years,
		TicksPerYear: ts.TicksPerYear, AttrsPerNode: ts.AttrsPerNode, Seed: seed,
	})
	return datagen.Churn(base, datagen.ChurnConfig{
		Adds: ts.ChurnAdds, Dels: ts.ChurnDels, Ticks: ts.ChurnTicks, Seed: seed + 1,
	})
}

// genTail continues the prefix's churn, at its rate of ticks per event,
// for n events: the writer's input.
func genTail(prefix graph.EventList, ts traceSpec, seed int64, n int) graph.EventList {
	if n <= 0 {
		return nil
	}
	perEvent := max(ts.ChurnTicks/max(ts.ChurnAdds+ts.ChurnDels, 1), 1)
	all := datagen.Churn(prefix, datagen.ChurnConfig{
		Adds: n / 2, Dels: n - n/2, Ticks: perEvent * n, Seed: seed + 2,
	})
	return all[len(prefix):]
}

// fingerprint summarizes a snapshot: element counts and ID sums.
type fingerprint struct {
	Nodes, Edges     int
	NodeSum, EdgeSum int64
}

// nodeLife and edgeLife record when an element exists: [added, deleted).
type nodeLife struct {
	added graph.Time
	attrs map[string]string // attributes set at the add (the trace never changes them)
}

type edgeLife struct {
	added, deleted graph.Time // deleted is maxTime while alive
}

const maxTime = graph.Time(1<<62 - 1)

// oracle is the reference replay of a trace: it answers what any
// snapshot or element probe must contain at a timepoint.
// It is built once per run, outside setup_s.
type oracle struct {
	times []graph.Time // distinct event times, ascending
	fps   []fingerprint
	nodes map[graph.NodeID]nodeLife
	edges map[graph.EdgeID]edgeLife
	first graph.Time
	last  graph.Time
}

// timepoints draws read timepoints from the oracle's range [first, last]
// as a golden-ratio sequence from a seeded random start. Each draw is
// uniform over the range, and any stretch of draws covers it evenly, so a
// run's latency sample does not hinge on where a few thousand independent
// draws happened to cluster; the seed still moves every point.
type timepoints struct {
	first graph.Time
	span  float64
	x     float64
}

const goldenStep = 0.6180339887498949 // (sqrt(5) - 1) / 2

func (o *oracle) timepoints(rng *rand.Rand) *timepoints {
	return &timepoints{first: o.first, span: float64(o.last - o.first + 1), x: rng.Float64()}
}

func (tp *timepoints) next() graph.Time {
	if tp.x += goldenStep; tp.x >= 1 {
		tp.x--
	}
	return tp.first + graph.Time(tp.x*tp.span)
}

// newOracle replays the concatenation of lists.
func newOracle(lists ...graph.EventList) *oracle {
	o := &oracle{nodes: map[graph.NodeID]nodeLife{}, edges: map[graph.EdgeID]edgeLife{}}
	var events []graph.Event
	for _, l := range lists {
		events = append(events, l...)
	}
	if len(events) == 0 {
		return o
	}
	o.first, o.last = events[0].At, events[len(events)-1].At
	var fp fingerprint
	live := map[graph.EdgeID]bool{}
	for i, ev := range events {
		switch ev.Type {
		case graph.AddNode:
			if _, ok := o.nodes[ev.Node]; !ok {
				o.nodes[ev.Node] = nodeLife{added: ev.At, attrs: map[string]string{}}
				fp.Nodes++
				fp.NodeSum += int64(ev.Node)
			}
		case graph.SetNodeAttr:
			if n, ok := o.nodes[ev.Node]; ok && ev.HasNew && n.added == ev.At {
				n.attrs[ev.Attr] = ev.New
			}
		case graph.AddEdge:
			if !live[ev.Edge] {
				live[ev.Edge] = true
				o.edges[ev.Edge] = edgeLife{added: ev.At, deleted: maxTime}
				fp.Edges++
				fp.EdgeSum += int64(ev.Edge)
			}
		case graph.DelEdge:
			if live[ev.Edge] {
				delete(live, ev.Edge)
				e := o.edges[ev.Edge]
				e.deleted = ev.At
				o.edges[ev.Edge] = e
				fp.Edges--
				fp.EdgeSum -= int64(ev.Edge)
			}
		}
		if i == len(events)-1 || events[i+1].At != ev.At {
			o.times = append(o.times, ev.At)
			o.fps = append(o.fps, fp)
		}
	}
	return o
}

// at returns the fingerprint of the snapshot as of t.
func (o *oracle) at(t graph.Time) fingerprint {
	i := sort.Search(len(o.times), func(i int) bool { return o.times[i] > t }) - 1
	if i < 0 {
		return fingerprint{}
	}
	return o.fps[i]
}

func (o *oracle) nodeAt(n graph.NodeID, t graph.Time) (nodeLife, bool) {
	l, ok := o.nodes[n]
	return l, ok && l.added <= t
}

func (o *oracle) edgeAt(e graph.EdgeID, t graph.Time) bool {
	l, ok := o.edges[e]
	return ok && l.added <= t && t < l.deleted
}

// checkFingerprint compares an answer with the reference.
func checkFingerprint(what string, t graph.Time, got, want fingerprint) error {
	if got != want {
		return fmt.Errorf("%s at t=%d: got %+v, want %+v", what, t, got, want)
	}
	return nil
}
