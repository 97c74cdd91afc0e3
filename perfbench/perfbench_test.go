package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runShort runs one workload for three seconds, long enough for every
// phase to complete operations under the race detector, and decodes its
// last line.
func runShort(t *testing.T, workload, seed, trace string) (runResult, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "3", "-trace", trace, "-workdir", t.TempDir()}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errOut.String())
	}
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", workload, trace, code, out.String(), errOut.String())
	}
	return r, out.String()
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	setup, err := loadSetup()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(setup.Workloads) {
		for _, c := range []struct {
			seed, trace string
			units       map[string]metricSpec
		}{{"1", "0", setup.EndToEnd}, {"2", "0", setup.EndToEnd}, {"1", "1", setup.PerLayer}} {
			t.Run(name+"/seed"+c.seed+"/trace"+c.trace, func(t *testing.T) {
				r, out := runShort(t, name, c.seed, c.trace)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
				}
				if got, want := sortedKeys(r.Metrics), sortedKeys(c.units); !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				for k, m := range r.Metrics {
					if m.Unit != c.units[k].Unit {
						t.Errorf("%s: unit %q, want %q", k, m.Unit, c.units[k].Unit)
					}
					if c.trace == "0" && m.Value <= 0 {
						t.Errorf("%s = %v, want a positive measurement", k, m.Value)
					}
				}
				if c.trace == "1" {
					for _, want := range []string{"layer budget:", "remainder", "tracing overhead"} {
						if !strings.Contains(out, want) {
							t.Errorf("traced report lacks %q:\n%s", want, out)
						}
					}
				}
			})
		}
	}
}

// TestSetupMatchesBenchmarkJSON keeps setup.json and the repository's
// BENCHMARK.json naming the same workloads and metrics with the same
// units.
func TestSetupMatchesBenchmarkJSON(t *testing.T) {
	setup, err := loadSetup()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Method.WarmupS != warmup.Seconds() || setup.Method.WindowS != window.Seconds() {
		t.Errorf("setup.json method warm-up %vs window %vs, benchmark uses %v and %v",
			setup.Method.WarmupS, setup.Method.WindowS, warmup, window)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why != setup.Workloads[w.Name].Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, setup.json %q", w.Name, w.Why, setup.Workloads[w.Name].Why)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, sortedKeys(setup.Workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, setup.json %v", names, sortedKeys(setup.Workloads))
	}
	check := func(kind string, list []struct{ Name, Unit string }, specs map[string]metricSpec) {
		for _, m := range list {
			if got, ok := specs[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in setup.json", kind, m.Name, m.Unit, got.Unit)
			}
		}
		if len(list) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, setup.json %d", kind, len(list), len(specs))
		}
	}
	check("end_to_end", bj.EndToEnd, setup.EndToEnd)
	check("per_layer", bj.PerLayer, setup.PerLayer)
}

func TestTraceIsSeeded(t *testing.T) {
	ts := traceSpec{Authors: 50, Edges: 200, Years: 5, TicksPerYear: 100, AttrsPerNode: 2, ChurnAdds: 50, ChurnDels: 50, ChurnTicks: 500}
	a, b, c := genPrefix(ts, 1), genPrefix(ts, 1), genPrefix(ts, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different traces")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same trace")
	}
	tail := genTail(a, ts, 1, 40)
	if len(tail) != 40 || tail[0].At <= a[len(a)-1].At {
		t.Fatalf("tail of %d events starting at %d after prefix ending at %d", len(tail), tail[0].At, a[len(a)-1].At)
	}
}

// TestTimepointsCoverRange checks that read timepoints stay in the
// oracle's range, cover it evenly from the first draws on, and move with
// the seed.
func TestTimepointsCoverRange(t *testing.T) {
	orc := &oracle{first: 1000, last: 100999}
	draw := func(seed int64, n int) []graph.Time {
		tp := orc.timepoints(rand.New(rand.NewSource(seed)))
		out := make([]graph.Time, n)
		for i := range out {
			out[i] = tp.next()
		}
		return out
	}
	const buckets = 50
	var hits [buckets]int
	for _, v := range draw(1, 10*buckets) {
		if v < orc.first || v > orc.last {
			t.Fatalf("timepoint %d outside [%d, %d]", v, orc.first, orc.last)
		}
		hits[int(v-orc.first)*buckets/int(orc.last-orc.first+1)]++
	}
	for b, n := range hits {
		if n < 8 || n > 12 {
			t.Errorf("bucket %d holds %d of %d draws, want 10 +- 2", b, n, 10*buckets)
		}
	}
	if reflect.DeepEqual(draw(1, 20), draw(2, 20)) {
		t.Error("different seeds gave the same timepoints")
	}
	if !reflect.DeepEqual(draw(3, 20), draw(3, 20)) {
		t.Error("same seed gave different timepoints")
	}
}

// TestCalmWindows checks the steal filter: windows above the steal limit
// are left out, and when fewer than half stay, the least-stolen half
// counts.
func TestCalmWindows(t *testing.T) {
	start := time.Now()
	p := &phase{start: start, end: start.Add(4 * window)}
	limit := int64(maxStealShare * window.Seconds() * clockTicks * float64(runtime.NumCPU()))
	cumulative := func(per ...int64) []int64 {
		out := []int64{0}
		for _, s := range per {
			out = append(out, out[len(out)-1]+s)
		}
		return out
	}
	for _, c := range []struct {
		steal []int64
		want  []bool
	}{
		{[]int64{0, 5 * limit, limit, 0}, []bool{true, false, true, true}},
		{[]int64{4 * limit, 2 * limit, 3 * limit, limit / 2}, []bool{false, true, false, true}},
		{[]int64{0, 0, 0}, []bool{true, true, true, true}}, // last window has no closing sample
	} {
		p.steal = cumulative(c.steal...)
		if got := p.calm(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("steal per window %v: calm %v, want %v", c.steal, got, c.want)
		}
	}
}

// smallTrace is a hand-checkable trace: a triangle whose edge 2 is
// deleted at t=5, plus a self-loop on node 3 from t=6.
func smallTrace() graph.EventList {
	return graph.EventList{
		{Type: graph.AddNode, At: 1, Node: 1},
		{Type: graph.SetNodeAttr, At: 1, Node: 1, Attr: "k0", New: "a", HasNew: true},
		{Type: graph.AddNode, At: 1, Node: 2},
		{Type: graph.AddNode, At: 2, Node: 3},
		{Type: graph.AddEdge, At: 3, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.AddEdge, At: 3, Edge: 2, Node: 2, Node2: 3},
		{Type: graph.AddEdge, At: 4, Edge: 3, Node: 3, Node2: 1},
		{Type: graph.DelEdge, At: 5, Edge: 2, Node: 2, Node2: 3},
		{Type: graph.AddEdge, At: 6, Edge: 4, Node: 3, Node2: 3},
	}
}

func TestOracleAnswers(t *testing.T) {
	orc := newOracle(smallTrace())
	if got, want := orc.at(4), (fingerprint{Nodes: 3, Edges: 3, NodeSum: 6, EdgeSum: 6}); got != want {
		t.Fatalf("at(4) = %+v, want %+v", got, want)
	}
	if got, want := orc.at(5), (fingerprint{Nodes: 3, Edges: 2, NodeSum: 6, EdgeSum: 4}); got != want {
		t.Fatalf("at(5) = %+v, want %+v", got, want)
	}
	if got := orc.at(0); got != (fingerprint{}) {
		t.Fatalf("at(0) = %+v, want empty", got)
	}
	if !orc.edgeAt(2, 4) || orc.edgeAt(2, 5) {
		t.Fatal("edge 2 lifetime wrong")
	}
}

// TestOracleRejectsCorruptedAnswers feeds the checks a correct answer,
// then the same answer with one element changed.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	orc := newOracle(smallTrace())
	good := func() *server.SnapshotJSON {
		return &server.SnapshotJSON{At: 5, NumNodes: 3, NumEdges: 2,
			Nodes: []wire.Node{{ID: 1}, {ID: 2}, {ID: 3}},
			Edges: []wire.Edge{{ID: 1, From: 1, To: 2}, {ID: 3, From: 3, To: 1}}}
	}
	if err := checkSnapshot(good(), 5, orc.at(5), true); err != nil {
		t.Fatalf("correct snapshot rejected: %v", err)
	}
	corruptions := map[string]func(*server.SnapshotJSON){
		"edge id":     func(s *server.SnapshotJSON) { s.Edges[1].ID = 2 },
		"edge count":  func(s *server.SnapshotJSON) { s.NumEdges = 3 },
		"dropped row": func(s *server.SnapshotJSON) { s.Nodes = s.Nodes[:2] },
		"partial":     func(s *server.SnapshotJSON) { s.Partial = []wire.PartitionError{{Partition: 1, Error: "down"}} },
	}
	for name, corrupt := range corruptions {
		s := good()
		corrupt(s)
		if err := checkSnapshot(s, 5, orc.at(5), true); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
}

// TestLibraryVerifyRejectsWrongIndex retrieves from a real index and
// checks the view against a reference replay of a different trace.
func TestLibraryVerifyRejectsWrongIndex(t *testing.T) {
	events := smallTrace()
	spec := workloadSpec{LeafSize: 2, Arity: 2}
	lib, err := buildLibrary(spec, events, filepath.Join(t.TempDir(), "index.kv"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer lib.close()
	check := func(orc *oracle) int64 {
		tl := &tally{}
		for at := graph.Time(1); at <= 6; at++ {
			id, err := lib.dg.Retrieve(at, allAttrs)
			if err != nil {
				t.Fatal(err)
			}
			lib.verify(orc, tl, rand.New(rand.NewSource(1)), id, at, true)
			if err := lib.pool.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		return tl.failed.Load()
	}
	if failed := check(newOracle(events)); failed != 0 {
		t.Fatalf("%d correct views rejected", failed)
	}
	wrong := append(append(graph.EventList{}, events[:7]...), events[8:]...) // the index deleted edge 2; the reference did not
	if failed := check(newOracle(wrong)); failed == 0 {
		t.Fatal("views of a different history accepted")
	}
}
