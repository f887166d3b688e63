// Command perfbench is Mantra's benchmark. It runs one named workload
// from a seed, times only calls into the monitor — shard.Supervisor's
// and Monitor's cycles, archive recovery and the HTTP handler, never the
// simulator's Step — checks the monitor's outputs, and prints one JSON
// result as its last line of output.
//
//	go build -o perfbench . && ./perfbench -workload fleet-5k -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// a replica of the pipeline wiring, built from the same public calls,
// runs beside the real monitor with a span around every layer call, and
// the result holds the per-layer metrics. README.md explains each
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports on every workload;
// perLayer those a -trace 1 run reports. BENCHMARK.json names the same
// lists (TestMetricListsMatchBenchmarkJSON). Metrics that apply to one
// workload only — query latency, recovery, detection lag, failed
// operations — are printed on the report line before the result.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"cycle_p50_ms", "ms"}, {"target_cycles_per_s", "1/s"}, {"heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"router.render_ms", "ms"}, {"router.dump_bytes", "bytes"},
		{"collect.self_ms", "ms"}, {"collect.attempts_per_target", "count"},
		{"tables.build_ms", "ms"}, {"tables.build_alloc_mb", "MB"},
		{"logger.append_ms", "ms"}, {"logger.wal_append_ms", "ms"}, {"logger.wal_bytes", "bytes"},
		{"logger.checkpoint_ms", "ms"}, {"logger.checkpoint_bytes", "bytes"}, {"logger.recover_ms", "ms"},
		{"process.ingest_ms", "ms"},
		{"tsdb.query_us", "us"}, {"output.serve_self_us", "us"}, {"query.gen_late_ms", "ms"},
		{"shard.export_ms", "ms"}, {"shard.fanin_ms", "ms"}, {"shard.skew_ms", "ms"},
		{"shard.handoff_ms", "ms"}, {"shard.handoffs", "count"}, {"shard.blind_target_cycles", "count"},
		{"engine.reorder_wait_ms", "ms"}, {"engine.max_queue_depth", "count"}, {"engine.overhead_ms", "ms"},
		{"runtime.alloc_mb_per_cycle", "MB"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_count", "count"},
		{"sim.step_ms", "ms"},
		{"trace.cycle_p50_ms", "ms"}, {"trace.overhead_ms", "ms"},
	}
)

var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-5k":          func(rc runConfig) (*outcome, error) { return runFleet(fleetSpec{domains: 48}, rc) },
	"fleet-faults":      func(rc runConfig) (*outcome, error) { return runFleet(fleetSpec{domains: 24, faults: true}, rc) },
	"archive-incidents": runArchive,
}

// seeds are the independent random streams one -seed drives.
type seeds struct {
	base, topo, workload, netsim, faults int64
}

func deriveSeeds(seed int64) seeds {
	r := sim.NewRNG(seed)
	return seeds{base: seed, topo: r.Int63(), workload: r.Int63(), netsim: r.Int63(), faults: r.Int63()}
}

// sub returns the streams of the i-th of several networks one run
// builds; a run that averages over several networks varies less from
// seed to seed.
func (s seeds) sub(i int) seeds { return deriveSeeds(s.base*1_000_003 + int64(i)) }

// forTargets returns one fault-stream seed per target.
func (s seeds) forTargets(n int) []int64 {
	r := sim.NewRNG(s.faults)
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

type runConfig struct {
	seeds  seeds
	window time.Duration
	// dir is scratch space for archives and WALs, removed afterwards.
	dir string
	// trace is nil for the untraced run.
	trace *Tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	endToEnd  map[string]metric
	layers    map[string]float64
	samples   map[string]any
	notes     map[string]any
	gates     []string
	attempted int
	failed    int
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, layers: map[string]float64{}, samples: map[string]any{}, notes: map[string]any{}}
}

func (o *outcome) e2e(name string, v float64, unit string) { o.endToEnd[name] = metric{v, unit} }
func (o *outcome) layer(name string, v float64)            { o.layers[name] = v }
func (o *outcome) sample(name string, v any)               { o.samples[name] = v }
func (o *outcome) note(name string, v any)                 { o.notes[name] = v }
func (o *outcome) gate(format string, args ...any) {
	o.gates = append(o.gates, fmt.Sprintf(format, args...))
}

// cycleMetrics records the cycle-time metrics shared by every workload.
func (o *outcome) cycleMetrics(cycles []float64, monitor time.Duration, targetCycles int) {
	o.e2e("cycle_p50_ms", median(cycles), "ms")
	o.sample("cycles", len(cycles))
	if t, ok := highestTail(cycles); ok {
		o.e2e("cycle_tail_ms", t.Value, "ms")
		o.sample("cycle_tail_ms", t)
	}
	o.e2e("target_cycles_per_s", float64(targetCycles)/monitor.Seconds(), "1/s")
	o.sample("target_cycles", targetCycles)
}

// traceOverhead compares the replica's traced cycle time with the real
// monitor's untraced one over the same cycles.
func (o *outcome) traceOverhead(spans []Span, realCycles []float64) {
	var traced []float64
	for _, s := range spans {
		if s.Name == "cycle" {
			traced = append(traced, ms(s.End-s.Start))
		}
	}
	o.layer("trace.cycle_p50_ms", median(traced))
	o.layer("trace.overhead_ms", median(traced)-median(realCycles))
}

// selfMsByName sums span self time per layer, in milliseconds.
func selfMsByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for name, d := range selfByName(spans) {
		out[name] = ms(d)
	}
	return out
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: fleet-5k, fleet-faults or archive-incidents")
	seed := flag.Int64("seed", 1, "seed for every random stream of the workload")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replica and reports per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rc := runConfig{seeds: deriveSeeds(*seed), window: time.Duration(*seconds * float64(time.Second)), dir: dir}
	if *trace == 1 {
		rc.trace = newTracer()
	}
	wall := time.Now()
	out, err := wl(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.note("wall_s", time.Since(wall).Seconds())

	var traceFile string
	if rc.trace != nil {
		traceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeSpans(traceFile, rc.trace.Spans()); err != nil {
			out.gate("write trace: %v", err)
		}
	}

	res := result{Correct: len(out.gates) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	layers := map[string]metric{}
	for _, m := range perLayer {
		// A layer the workload does not exercise reads zero.
		layers[m.name] = metric{out.layers[m.name], m.unit}
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{out.endToEnd[m.name].Value, m.unit}
	}
	if rc.trace != nil {
		res.Metrics = layers
	}

	report := map[string]any{
		"workload": *name,
		"env": map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"go":         runtime.Version(),
			"seed":       *seed,
			"seconds":    *seconds,
			"trace":      *trace,
		},
		"end_to_end": out.endToEnd,
		"samples":    out.samples,
		"notes":      out.notes,
		"gates":      out.gates,
	}
	if rc.trace != nil {
		report["per_layer"] = layers
		report["trace_file"] = traceFile
	}
	printJSON(report)
	printJSON(res)
	if !res.Correct {
		for _, g := range out.gates {
			fmt.Fprintln(os.Stderr, "perfbench: gate failed:", g)
		}
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		return
	}
	fmt.Println(string(b))
}

func writeSpans(path string, spans []Span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
