package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 10, ok: false}, // the median has only 5 beyond it
		{n: 19, ok: false}, // rank 10, 9 beyond
		{n: 20, ok: true, p: 50, value: 10, beyond: 10},  // rank 10
		{n: 39, ok: true, p: 50, value: 20, beyond: 19},  // p75 would leave 9
		{n: 40, ok: true, p: 75, value: 30, beyond: 10},  // rank 30
		{n: 100, ok: true, p: 90, value: 90, beyond: 10}, // p95 would leave 5
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
	}
	for _, c := range cases {
		got, ok := highestTail(seq(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			continue
		}
		want := tail{Percentile: c.p, Value: c.value, Samples: c.n, Beyond: c.beyond}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", c.n, got.Beyond)
		}
	}
}

func TestPercentileWithBeyond(t *testing.T) {
	if _, ok := percentileWithBeyond(seq(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must be withheld")
	}
	got, ok := percentileWithBeyond(seq(1000), 99)
	if !ok || got.Value != 990 || got.Beyond != 10 {
		t.Errorf("p99 of 1000 samples = %+v, %v", got, ok)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "cycle", Start: 0, End: 100 * ms},
		// Two children that overlap (concurrent workers) count once.
		{ID: 2, Parent: 1, Name: "collect", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "collect", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent is clipped to the parent.
		{ID: 4, Parent: 1, Name: "ingest", Start: 90 * ms, End: 120 * ms},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "render", Start: 15 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // children cover 10-50 and 90-100
		2: 30*ms - 10*ms,
		3: 20 * ms,
		4: 30 * ms,
		5: 10 * ms,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["collect"] != 40*ms || byName["cycle"] != 50*ms {
		t.Errorf("self by name = %v", byName)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("cycle", 0, 1, "")
	tr.End(id)
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr = newTracer()
	root := tr.Begin("cycle", 0, 1, "")
	child := tr.Begin("collect", root, 1, "fixw")
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("spans = %+v", spans)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	ol := openLoop{start: t0, interval: 10 * time.Millisecond}
	// Request 0 is sent on time and stalls for 35ms.
	lat, late := ol.record(0, t0, t0.Add(35*time.Millisecond))
	if lat != 35*time.Millisecond || late != 0 {
		t.Errorf("request 0: latency %v late %v", lat, late)
	}
	// Request 1 was due at 10ms but could only be sent at 35ms; it takes
	// 1ms itself, yet its latency counts the 25ms it waited.
	lat, late = ol.record(1, t0.Add(35*time.Millisecond), t0.Add(36*time.Millisecond))
	if lat != 26*time.Millisecond || late != 25*time.Millisecond {
		t.Errorf("request 1: latency %v late %v", lat, late)
	}
	// A request sent early is not early in the lateness report.
	if _, late = ol.record(4, t0.Add(39*time.Millisecond), t0.Add(41*time.Millisecond)); late != 0 {
		t.Errorf("request 4: late %v", late)
	}
}

func TestSeedsAreDeterministicAndDistinct(t *testing.T) {
	a, b := deriveSeeds(7), deriveSeeds(7)
	if a != b {
		t.Fatalf("same seed gave %+v and %+v", a, b)
	}
	if a == deriveSeeds(8) || a.sub(0) == a.sub(1) {
		t.Error("different seeds gave equal streams")
	}
	if !reflect.DeepEqual(a.forTargets(3), b.forTargets(3)) {
		t.Error("fault seeds differ for the same seed")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists
// and the benchmark definition in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, have []metricDef) {
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(have))
		}
		for i := range want {
			if want[i].Name != have[i].name || want[i].Unit != have[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, want[i].Name, want[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
