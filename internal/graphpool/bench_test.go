package graphpool

import (
	"fmt"
	"math/rand"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// The per-layer benchmarks model the pool under the retrieve-uniform
// workload: a union graph of about 2k nodes, 12k edges and 20k attribute
// values, with about 250 released graphs outstanding between cleaner
// passes (the bit width a 1 s cleaner leaves at ~250 retrievals/s).
const (
	benchNodes       = 2000
	benchEdges       = 12000
	benchNodeAttrs   = 5 // per node: 10k node attribute values
	benchOutstanding = 250
)

// benchUniverse is the union graph: every node carries benchNodeAttrs
// attributes and every edge below 10k one weight.
func benchUniverse(rng *rand.Rand) *graph.Snapshot {
	s := graph.NewSnapshot()
	for n := graph.NodeID(1); n <= benchNodes; n++ {
		s.Nodes[n] = struct{}{}
		attrs := make(map[string]string, benchNodeAttrs)
		for k := 0; k < benchNodeAttrs; k++ {
			attrs[fmt.Sprintf("k%d", k)] = fmt.Sprintf("v%d", rng.Intn(50))
		}
		s.NodeAttrs[n] = attrs
	}
	for e := graph.EdgeID(1); e <= benchEdges; e++ {
		s.Edges[e] = graph.EdgeInfo{From: graph.NodeID(1 + rng.Intn(benchNodes)), To: graph.NodeID(1 + rng.Intn(benchNodes))}
		if e <= 10000 {
			s.EdgeAttrs[e] = map[string]string{"w": fmt.Sprintf("%d", rng.Intn(100))}
		}
	}
	return s
}

// benchSubset keeps each node of u with probability 0.9 and each edge whose
// endpoints survive; attributes follow their elements when attrs is set.
func benchSubset(u *graph.Snapshot, rng *rand.Rand, attrs bool) *graph.Snapshot {
	s := graph.NewSnapshot()
	for n := range u.Nodes {
		if rng.Intn(10) != 0 {
			s.Nodes[n] = struct{}{}
			if attrs {
				s.NodeAttrs[n] = u.NodeAttrs[n]
			}
		}
	}
	for e, info := range u.Edges {
		_, okf := s.Nodes[info.From]
		_, okt := s.Nodes[info.To]
		if okf && okt {
			s.Edges[e] = info
			if a, ok := u.EdgeAttrs[e]; ok && attrs {
				s.EdgeAttrs[e] = a
			}
		}
	}
	return s
}

// BenchmarkOverlaySnapshot times one explicit overlay plus its release, the
// pool's share of a Retrieve. The current graph holds the whole union and
// a pass of CleanNow runs (untimed) after every benchOutstanding overlays,
// so bit positions climb to the cleaner's steady-state width.
func BenchmarkOverlaySnapshot(b *testing.B) {
	for _, attrs := range []bool{false, true} {
		name := "structure"
		if attrs {
			name = "attrs"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			u := benchUniverse(rng)
			snaps := make([]*graph.Snapshot, 8)
			for i := range snaps {
				snaps[i] = benchSubset(u, rng, attrs)
			}
			p := New()
			p.LoadCurrent(u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := p.OverlaySnapshot(snaps[i%len(snaps)], graph.Time(i))
				if err := p.Release(id); err != nil {
					b.Fatal(err)
				}
				if i%benchOutstanding == benchOutstanding-1 {
					b.StopTimer()
					p.CleanNow()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkCleanNow times one cleaner pass that reclaims benchOutstanding
// released graphs over the union graph. The current graph holds the
// union's 12k edges; another 12k edges were deleted by churn and live on
// only in historical snapshots. Of the released graphs, a few are
// explicit snapshots holding a share of those deleted edges (a pass
// evicts about 11k edges and their attribute values, as under the
// retrieve-uniform workload) and the rest are overlaid against the
// current graph with a few exceptions.
func BenchmarkCleanNow(b *testing.B) {
	const explicit = 10
	rng := rand.New(rand.NewSource(1))
	cur := benchUniverse(rng)
	deleted := make(map[graph.EdgeID]graph.EdgeInfo)
	for e := graph.EdgeID(benchEdges + 1); e <= 2*benchEdges; e++ {
		deleted[e] = graph.EdgeInfo{From: graph.NodeID(1 + rng.Intn(benchNodes)), To: graph.NodeID(1 + rng.Intn(benchNodes))}
	}
	hist := make([]*graph.Snapshot, explicit)
	for i := range hist {
		s := benchSubset(cur, rng, true)
		for e, info := range deleted {
			_, okf := s.Nodes[info.From]
			_, okt := s.Nodes[info.To]
			if okf && okt && rng.Intn(10) < 3 {
				s.Edges[e] = info
				s.EdgeAttrs[e] = map[string]string{"w": fmt.Sprintf("%d", rng.Intn(100))}
			}
		}
		hist[i] = s
	}
	deltas := make([]*delta.Delta, 16)
	for i := range deltas {
		d := &delta.Delta{}
		for j := 0; j < 40; j++ {
			d.DelNodes = append(d.DelNodes, graph.NodeID(1+rng.Intn(benchNodes)))
		}
		deltas[i] = d
	}
	p := New()
	p.LoadCurrent(cur)
	ids := make([]GraphID, 0, benchOutstanding)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ids = ids[:0]
		for _, s := range hist {
			ids = append(ids, p.OverlaySnapshot(s, 1))
		}
		for j := len(ids); j < benchOutstanding; j++ {
			id, err := p.OverlayDependent(CurrentGraph, deltas[(i+j)%len(deltas)], graph.Time(j))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := p.Release(id); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		p.CleanNow()
	}
}
