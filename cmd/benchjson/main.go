// Command benchjson converts `go test -bench` text output on stdin into
// a machine-readable JSON array, one object per benchmark result line:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | benchjson -out BENCH_smoke.json
//
// Each object carries the package (from the preceding "pkg:" line), the
// benchmark name with its -N parallelism suffix split off, the iteration
// count, and every value/unit metric pair go test printed (ns/op, B/op,
// allocs/op, custom units). When one benchmark appears several times
// (from -count N), a summary row follows the raw rows for each such
// benchmark: the run count and the median, min and max of every metric.
// The output is deliberately timestamp-free:
// two runs over identical results produce identical bytes, so benchmark
// JSON can be diffed and committed like any other artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one output row: a raw result line (Iterations and
// Metrics) or, for a benchmark seen more than once, its summary (Runs,
// Median, Min and Max).
type benchResult struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Runs       int                `json:"runs,omitempty"`
	Median     map[string]float64 `json:"median,omitempty"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

func main() {
	out := flag.String("out", "", "file to write JSON to (default: stdout)")
	flag.Parse()

	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(append(results, summarize(results)...)); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if *out == "" {
		fmt.Print(buf.String())
		return
	}
	if err := os.WriteFile(*out, []byte(buf.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

func parse(sc *bufio.Scanner) ([]benchResult, error) {
	var results []benchResult
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is name, iteration count, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := benchResult{Package: pkg, Name: fields[0], Iterations: iters,
			Metrics: make(map[string]float64, (len(fields)-2)/2)}
		if i := strings.LastIndex(r.Name, "-"); i > 0 {
			if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Name, r.Procs = r.Name[:i], p
			}
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		if ok {
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// summarize returns one summary row per benchmark (package, name and
// procs) that has more than one raw row, in order of first appearance.
// Each metric's median is the middle value, or the mean of the two
// middle values for an even run count.
func summarize(results []benchResult) []benchResult {
	type key struct {
		pkg, name string
		procs     int
	}
	var order []key
	runs := make(map[key][]benchResult)
	for _, r := range results {
		k := key{r.Package, r.Name, r.Procs}
		if runs[k] == nil {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	var out []benchResult
	for _, k := range order {
		rs := runs[k]
		if len(rs) < 2 {
			continue
		}
		sum := benchResult{Package: k.pkg, Name: k.name, Procs: k.procs, Runs: len(rs),
			Median: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
		values := make(map[string][]float64)
		for _, r := range rs {
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		for unit, vs := range values {
			sort.Float64s(vs)
			n := len(vs)
			sum.Min[unit], sum.Max[unit] = vs[0], vs[n-1]
			if n%2 == 1 {
				sum.Median[unit] = vs[n/2]
			} else {
				sum.Median[unit] = (vs[n/2-1] + vs[n/2]) / 2
			}
		}
		out = append(out, sum)
	}
	return out
}
