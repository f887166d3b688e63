// Command benchjson converts `go test -bench` text output on stdin into
// a machine-readable JSON array, one object per benchmark result line:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | benchjson -out BENCH_smoke.json
//
// Each object carries the package (from the preceding "pkg:" line), the
// benchmark name with its -N parallelism suffix split off, the iteration
// count, and every value/unit metric pair go test printed (ns/op, B/op,
// allocs/op, custom units). The output is deliberately timestamp-free:
// two runs over identical results produce identical bytes, so benchmark
// JSON can be diffed and committed like any other artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
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
	if err := enc.Encode(results); err != nil {
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
