package mantra_test

// The dynamic half of the //mantra:hotpath contract. mantralint's
// hotalloc check bounds the *static* allocation-site count of every
// hot-path function (TestHotRootsPinned in internal/lint pins the root
// list); the gates here bound what the key roots *actually* allocate
// per call with testing.AllocsPerRun, so an allocation that slips past
// the static view — hidden in the runtime, an escape the analyzer
// cannot prove — still fails the suite. Bounds are pinned a little
// above today's measurements: headroom for runtime noise, tight enough
// that a new per-call allocation (a fmt detour, a fresh map or scratch
// slice) trips the gate.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// gateNetwork builds the small simulated internetwork the gates scrape
// real dumps from.
func gateNetwork(tb testing.TB) *netsim.Network {
	tb.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	return n
}

func gateTarget(n *netsim.Network, name string) collect.Target {
	r := n.Router(name)
	r.Password = "pw"
	return collect.Target{
		Name:     name,
		Dialer:   collect.PipeDialer{Router: r},
		Password: "pw",
		Prompt:   name + "> ",
		Timeout:  5 * time.Second,
	}
}

func gateDumps(tb testing.TB) []collect.Dump {
	tb.Helper()
	n := gateNetwork(tb)
	dumps, err := collect.CollectAll(gateTarget(n, "fixw"), collect.StandardCommands, n.Now())
	if err != nil {
		tb.Fatal(err)
	}
	return dumps
}

// allocGate runs fn under AllocsPerRun and fails if the average
// allocation count exceeds max.
func allocGate(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > max {
		t.Errorf("%s: %.1f allocs/op, gate is %.0f", name, got, max)
	}
}

func TestHotpathAllocGates(t *testing.T) {
	dumps := gateDumps(t)
	prompt := "fixw> "

	// The expect/dump parse path, bounded over the whole scraped command
	// set at once. Preprocess still returns one string per line (one
	// allocation per line not already in normalized form), so its cost
	// scales with dump size; BuildSnapshot walks the raw dumps in place
	// and allocates per table, not per row.
	allocGate(t, "Preprocess all dumps", 700, func() {
		for _, d := range dumps {
			collect.Preprocess(d.Raw)
		}
	})
	allocGate(t, "ValidateDumps", 40, func() {
		if err := collect.ValidateDumps(prompt, dumps); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "BuildSnapshot", 8, func() {
		if _, err := tables.BuildSnapshot(dumps); err != nil {
			t.Fatal(err)
		}
	})

	// Backoff's jitter hash must stay on the stack: zero allocations.
	// (Regression: it once formatted target/attempt/seed through fmt
	// into the hasher, three boxed allocations per retry decision.)
	pol := collect.DefaultPolicy()
	allocGate(t, "Policy.Backoff", 0, func() {
		pol.Backoff("fixw", 3)
	})
}

// TestRenderAllocGate bounds the simulated router's DVMRP dump: it is
// rendered into one presized buffer, so its allocations are a constant
// that does not grow with the route count. The gate holds on a small
// internetwork and on one with four times the domains.
func TestRenderAllocGate(t *testing.T) {
	var routes []int
	for _, domains := range []int{3, 12} {
		cfg := topo.DefaultInternetConfig()
		cfg.NumDomains = domains
		inet := topo.BuildInternet(cfg)
		n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
		n.Step()
		r := n.Router("fixw")
		routes = append(routes, strings.Count(r.Execute("show ip dvmrp route"), "\n")-2)
		allocGate(t, "Router.Execute(show ip dvmrp route)", 6, func() {
			r.Execute("show ip dvmrp route")
		})
	}
	if routes[1] < 2*routes[0] {
		t.Fatalf("route counts %v: the larger internetwork should at least double fixw's table", routes)
	}
}

// TestLoggerAppendSteadyStateAllocs pins logger.Append's steady state:
// with the topology quiet, a cycle's diff reuses the target's scratch
// sets and appends no delta entries, so per-cycle allocations stay near
// zero. (Regression: Append once built two fresh seen-maps per cycle
// per target.)
func TestLoggerAppendSteadyStateAllocs(t *testing.T) {
	dumps := gateDumps(t)
	sn, err := tables.BuildSnapshot(dumps)
	if err != nil {
		t.Fatal(err)
	}
	l := logger.New()
	l.Append(sn) // full first cycle
	l.Append(sn) // warm the scratch sets and record slices
	allocGate(t, "Logger.Append steady state", 8, func() {
		l.Append(sn)
	})
}

// BenchmarkHotpathParsePath tracks the expect/dump parse chain —
// Preprocess, ValidateDumps, BuildSnapshot over one scraped command set
// — with allocs/op reported, so BENCH_smoke.json records the numbers the
// gates above bound.
func BenchmarkHotpathParsePath(b *testing.B) {
	dumps := gateDumps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dumps {
			collect.Preprocess(d.Raw)
		}
		if err := collect.ValidateDumps("fixw> ", dumps); err != nil {
			b.Fatal(err)
		}
		if _, err := tables.BuildSnapshot(dumps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathLoggerAppend tracks the steady-state delta append.
func BenchmarkHotpathLoggerAppend(b *testing.B) {
	sn, err := tables.BuildSnapshot(gateDumps(b))
	if err != nil {
		b.Fatal(err)
	}
	l := logger.New()
	l.Append(sn)
	l.Append(sn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(sn)
	}
}
