// Command perfbench is the repository benchmark: it runs one named
// workload against the library or an in-process cluster, checks every
// answer against a reference replay of the generated trace, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics and a
// layer budget) followed by one JSON result line.
//
//	go run . -workload retrieve-uniform -seed 1 -seconds 10 -trace 0
//
// The workloads and their fixed parameters are recorded in setup.json,
// which is embedded here, so the record and the run cannot drift.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

//go:embed setup.json
var setupJSON []byte

// traceSpec sizes the generated Dataset-2-shaped trace: a growing
// coauthorship network followed by equal edge add/delete churn. The tail
// continues the churn past the loaded prefix and feeds the writer.
type traceSpec struct {
	Authors             int `json:"authors"`
	Edges               int `json:"edges"`
	Years               int `json:"years"`
	TicksPerYear        int `json:"ticks_per_year"`
	AttrsPerNode        int `json:"attrs_per_node"`
	ChurnAdds           int `json:"churn_adds"`
	ChurnDels           int `json:"churn_dels"`
	ChurnTicks          int `json:"churn_ticks"`
	TailEventsPerSecond int `json:"tail_events_per_second"`
}

// workloadSpec is one workload's entry in setup.json. Fields a workload
// does not use stay zero.
type workloadSpec struct {
	Why    string    `json:"why"`
	System string    `json:"system"` // "library" or "cluster"
	Trace  traceSpec `json:"trace"`

	LeafSize int `json:"leaf_size"`
	Arity    int `json:"arity"`
	Setups   int `json:"setups"`

	Readers          int     `json:"readers"`
	ReaderRPS        float64 `json:"reader_rps"`
	FullAttrEvery    int     `json:"full_attr_every"`
	MultipointEvery  int     `json:"multipoint_every"`
	MultipointPoints int     `json:"multipoint_points"`
	CleanIntervalMS  int     `json:"clean_interval_ms"`

	BatchEvents  int     `json:"batch_events"`
	PreloadBatch int     `json:"preload_batch"`
	IngestShare  float64 `json:"ingest_share"`

	Partitions       int    `json:"partitions"`
	HealthIntervalMS int    `json:"health_interval_ms"`
	Replicas         int    `json:"replicas"`
	SyncFollowers    int    `json:"sync_followers"`
	LegWire          string `json:"leg_wire"`
	ClientWire       string `json:"client_wire"`
	ViewCache        int    `json:"view_cache"`
	EncodedCache     int    `json:"encoded_cache"`
	MergedCache      int    `json:"merged_cache"`
}

// metricSpec is one metric's entry in setup.json: its unit and, for a
// per-layer metric, where its figure comes from.
type metricSpec struct {
	Unit   string `json:"unit"`
	Source string `json:"source"`
}

type setupFile struct {
	Method struct {
		WarmupS float64 `json:"warmup_s"`
		WindowS float64 `json:"window_s"`
	} `json:"method"`
	Workloads map[string]workloadSpec `json:"workloads"`
	EndToEnd  map[string]metricSpec   `json:"end_to_end"`
	PerLayer  map[string]metricSpec   `json:"per_layer"`
}

func loadSetup() (*setupFile, error) {
	var s setupFile
	if err := json.Unmarshal(setupJSON, &s); err != nil {
		return nil, fmt.Errorf("setup.json: %w", err)
	}
	return &s, nil
}

// runConfig is one invocation: a workload, its seed and run length, and
// whether this is the traced run.
type runConfig struct {
	name    string
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	dir     string    // scratch directory for stores and WALs
	report  io.Writer // human-readable report
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run hands back to main.
type result struct {
	tally  *tally
	e2e    map[string]float64
	layers map[string]float64
	// notes explains per-layer metrics a workload reports as 0: "idle"
	// when the layer is not on the workload's path, or why it cannot be
	// observed from outside the layer.
	notes map[string]string
}

func newResult() *result {
	return &result{tally: &tally{}, e2e: map[string]float64{}, layers: map[string]float64{}, notes: map[string]string{}}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name from setup.json")
	seed := fs.Int64("seed", 1, "workload seed: drives the trace, timepoints and request mix")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for index files and WALs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, err := loadSetup()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec, ok := setup.Workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (have %v)\n", *workload, sortedKeys(setup.Workloads))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "-seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "workdir:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "workdir:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{name: *workload, spec: spec, seed: *seed, seconds: *seconds,
		trace: *traceFlag == 1, dir: dir, report: stdout}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", cfg.name, cfg.seed, cfg.seconds, *traceFlag)
	var res *result
	switch spec.System {
	case "library":
		res, err = runLibrary(cfg)
	case "cluster":
		res, err = runCluster(cfg)
	default:
		err = fmt.Errorf("workload %s: unknown system %q", cfg.name, spec.System)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(stdout, stderr, cfg, setup, res)
}

// emit prints the metric table and the oracle verdict, then the JSON
// result line. It returns the process exit code: non-zero when any
// operation failed.
func emit(stdout, stderr io.Writer, cfg runConfig, setup *setupFile, res *result) int {
	t := res.tally
	attempted, failed := t.attempted.Load(), t.failed.Load()
	out := map[string]metric{}
	if cfg.trace {
		fmt.Fprintln(stdout, "per-layer metrics (traced phase), with where each came from:")
		for _, name := range sortedKeys(setup.PerLayer) {
			m := setup.PerLayer[name]
			out[name] = metric{Value: res.layers[name], Unit: m.Unit}
			note := m.Source
			if n, ok := res.notes[name]; ok {
				note = n
			} else if _, ok := res.layers[name]; !ok {
				note = "idle: layer not on this workload's path"
			}
			fmt.Fprintf(stdout, "  %-32s %14.4f %-8s %s\n", name, res.layers[name], m.Unit, note)
		}
	} else {
		fmt.Fprintln(stdout, "end-to-end metrics:")
		for _, name := range sortedKeys(setup.EndToEnd) {
			v, ok := res.e2e[name]
			if !ok || v <= 0 {
				fmt.Fprintf(stderr, "perfbench: workload %s measured no %s (phase too short?)\n", cfg.name, name)
				return 1
			}
			out[name] = metric{Value: v, Unit: setup.EndToEnd[name].Unit}
			fmt.Fprintf(stdout, "  %-24s %14.4f %s\n", name, v, setup.EndToEnd[name].Unit)
		}
	}
	frac := float64(failed) / float64(max(attempted, 1))
	fmt.Fprintf(stdout, "  %-24s %14.4f ratio (%d of %d operations)\n", "failed_frac", frac, failed, attempted)
	verdict := "PASS"
	if failed > 0 || attempted == 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(stdout, "oracle: %s\n", verdict)
	for _, f := range t.firstFailures() {
		fmt.Fprintln(stdout, "  failure:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{verdict == "PASS", attempted, failed, out})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if verdict != "PASS" {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
