package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/lint
cpu: Some CPU @ 2.40GHz
BenchmarkMantralintModule-8   	       2	 512345678 ns/op
PASS
ok  	repro/internal/lint	4.521s
pkg: repro
BenchmarkArchive/append-fsync-8         	      10	  20123456 ns/op	 1024 B/op	      12 allocs/op
BenchmarkCycleEngine/pipelined-8        	       3	 331234567 ns/op
--- BENCH: BenchmarkOddLine
BenchmarkNotAResultLine
ok  	repro	9.881s
`

func TestParse(t *testing.T) {
	results, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}

	r := results[0]
	if r.Package != "repro/internal/lint" || r.Name != "BenchmarkMantralintModule" ||
		r.Procs != 8 || r.Iterations != 2 {
		t.Errorf("first result = %+v", r)
	}
	if r.Metrics["ns/op"] != 512345678 {
		t.Errorf("ns/op = %v", r.Metrics["ns/op"])
	}

	// The -8 suffix comes off the last dash; the sub-benchmark's own
	// dashes stay in the name, and the pkg line resets per package.
	r = results[1]
	if r.Package != "repro" || r.Name != "BenchmarkArchive/append-fsync" || r.Procs != 8 {
		t.Errorf("second result = %+v", r)
	}
	if r.Metrics["B/op"] != 1024 || r.Metrics["allocs/op"] != 12 {
		t.Errorf("second metrics = %v", r.Metrics)
	}
}

const repeatedBench = `pkg: repro
BenchmarkScaleCycle/shards=1-2   	       1	 700 ns/op	 10 heap-bytes
BenchmarkScaleCycle/shards=4-2   	       1	 400 ns/op
BenchmarkScaleCycle/shards=1-2   	       1	 900 ns/op	 30 heap-bytes
BenchmarkScaleCycle/shards=1-2   	       1	 500 ns/op	 20 heap-bytes
BenchmarkScaleCycle/shards=4-2   	       1	 600 ns/op
BenchmarkScaleCycle/shards=1-4   	       1	 100 ns/op
`

func TestSummarize(t *testing.T) {
	results, err := parse(bufio.NewScanner(strings.NewReader(repeatedBench)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("parsed %d raw rows, want 6", len(results))
	}
	sums := summarize(results)
	// One summary per repeated (package, name, procs), in first-seen
	// order; the single -4 run gets none.
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2: %+v", len(sums), sums)
	}
	s := sums[0]
	if s.Name != "BenchmarkScaleCycle/shards=1" || s.Procs != 2 || s.Runs != 3 || s.Metrics != nil {
		t.Errorf("first summary = %+v", s)
	}
	if s.Median["ns/op"] != 700 || s.Min["ns/op"] != 500 || s.Max["ns/op"] != 900 {
		t.Errorf("ns/op median/min/max = %v/%v/%v, want 700/500/900", s.Median["ns/op"], s.Min["ns/op"], s.Max["ns/op"])
	}
	if s.Median["heap-bytes"] != 20 || s.Min["heap-bytes"] != 10 || s.Max["heap-bytes"] != 30 {
		t.Errorf("heap-bytes summary = %v/%v/%v", s.Median["heap-bytes"], s.Min["heap-bytes"], s.Max["heap-bytes"])
	}
	// An even run count takes the mean of the middle pair.
	if s := sums[1]; s.Name != "BenchmarkScaleCycle/shards=4" || s.Runs != 2 || s.Median["ns/op"] != 500 {
		t.Errorf("second summary = %+v", s)
	}
	if summarize(results[:2]) != nil {
		t.Error("distinct benchmarks produced a summary")
	}
}
